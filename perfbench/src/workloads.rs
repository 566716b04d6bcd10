//! The three workloads, their operating-point gates and their metrics.
//!
//! Every workload repeats one fixed pass of simulated work ("round") until
//! `--seconds` have gone by, at least [`MIN_ROUNDS`] times, and reports host
//! timings as medians over rounds: set-up in seconds, throughputs per piece
//! of a round in reference units (see `reference.rs`). The simulated figures
//! of every round must carry the digest of the first.

use crate::cells;
use crate::cpus::CpuRotation;
use crate::figures::SimFigures;
use crate::reference::reference_s;
use crate::serve::{self, check_matches_session, Prepared};
use crate::trace::Tracer;
use crate::{
    median, out_dir, peak_rss_mb, process_cpu_s, Opts, Outcome, Sheet, END_TO_END, PER_LAYER,
};
use janus_core::experiments::spec::{SessionSpec, SweepSpec};
use janus_core::experiments::sweep::{run_sweep_stored, StoreMode, SweepResult, RESULTS_EPOCH};
use janus_core::platform::metrics::ServingMetrics;
use janus_core::platform::openloop::OpenLoopArena;
use janus_core::simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_core::simcore::metrics::MetricsRegistry;
use janus_core::simcore::resources::Millicores;
use janus_core::simcore::time::SimDuration;
use janus_core::synthesizer::{ExplorationDepth, Synthesizer, SynthesizerConfig};
use janus_core::workloads::apps::PaperApp;
use janus_core::workloads::request::RequestInputGenerator;
use janus_core::PolicyReport;
use janus_results::ResultsStore;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub const NAMES: [&str; 3] = ["fleet_steady", "chaos_sweep", "paper_closed"];

/// Fewest rounds a run makes, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// `fleet_steady`: requests per policy, arrival rate and fleet size.
const FLEET_REQUESTS: usize = 25_000;
const FLEET_RPS: f64 = 4.0;
const FLEET_NODES: usize = 8;
/// `fleet_steady` operating point: every policy meets the SLO on at least
/// this share of requests, and the engine queue stays this shallow.
const FLEET_ATTAINMENT_FLOOR: f64 = 0.98;
const FLEET_DEPTH_CEILING: usize = 64;

/// `paper_closed`: requests per policy per config.
const PAPER_REQUESTS: usize = 20_000;
/// The paper sizes for the SLO at the 99th percentile, so Janus must meet
/// it on at least 99% of requests.
const PAPER_SLO_TARGET: f64 = 0.99;

/// `chaos_sweep` operating point: every policy of every cell serves at
/// least this share of its requests.
const CHAOS_SERVED_FLOOR: f64 = 0.9;
/// Seeds per chaos grid, counted up from the workload seed.
const CHAOS_SEEDS: u64 = 6;
/// Flight-recorder on/off pairs timed for `observe.overhead_frac`.
const OBSERVER_PAIRS: usize = 9;
/// Size of the fixed request set the Optimal oracle is built on.
const OPTIMAL_REQUESTS: usize = 1000;

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(opts.trace);
    let outcome = match opts.workload.as_str() {
        "fleet_steady" => sessions(opts, fleet_specs(opts.seed), Kind::Fleet, &mut tracer),
        "paper_closed" => sessions(opts, paper_specs(opts.seed), Kind::Paper, &mut tracer),
        "chaos_sweep" => {
            let dir = out_dir().join(format!("chaos-{}", std::process::id()));
            let outcome = chaos(opts, &dir, &mut tracer);
            let _ = std::fs::remove_dir_all(&dir);
            outcome
        }
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if opts.trace {
        print!("{}", tracer.self_time_table());
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        tracer.write_jsonl(&path)?;
        println!("spans written to {}", path.display());
    }
    Ok(outcome)
}

fn session_spec(app: PaperApp, concurrency: u32, policies: &[&str], seed: u64) -> SessionSpec {
    SessionSpec {
        app,
        concurrency,
        policies: policies.iter().map(|p| p.to_string()).collect(),
        requests: PAPER_REQUESTS,
        rps: None,
        scenario: None,
        autoscaler: None,
        admission: None,
        fault: None,
        observer: None,
        cluster: None,
        tenants: None,
        seed,
        samples_per_point: 1000,
        budget_step_ms: 1.0,
    }
}

/// IA under Poisson arrivals on a spread fleet, no capacity controls.
fn fleet_specs(seed: u64) -> Vec<(String, SessionSpec)> {
    let mut spec = session_spec(
        PaperApp::IntelligentAssistant,
        1,
        &["ORION", "GrandSLAM+", "Janus"],
        seed,
    );
    spec.requests = FLEET_REQUESTS;
    spec.rps = Some(FLEET_RPS);
    spec.cluster = Some(ClusterConfig {
        nodes: FLEET_NODES,
        node_capacity: Millicores::from_cores(52),
        placement: PlacementPolicy::Spread,
        zones: 1,
    });
    vec![("IA-c1-open".to_string(), spec)]
}

/// Table I: the six non-oracle policies, closed loop, IA at concurrency 1
/// to 3 and VA at 1.
fn paper_specs(seed: u64) -> Vec<(String, SessionSpec)> {
    let policies = [
        "ORION",
        "GrandSLAM+",
        "GrandSLAM",
        "Janus-",
        "Janus",
        "Janus+",
    ];
    [
        (PaperApp::IntelligentAssistant, 1),
        (PaperApp::IntelligentAssistant, 2),
        (PaperApp::IntelligentAssistant, 3),
        (PaperApp::VideoAnalyze, 1),
    ]
    .into_iter()
    .map(|(app, c)| {
        let id = format!("{}-c{c}", app.short_name());
        (id, session_spec(app, c, &policies, seed))
    })
    .collect()
}

/// The chaos grid: every value of every axis is checked to move some cell.
fn chaos_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        name: "chaos_sweep".into(),
        app: PaperApp::IntelligentAssistant,
        concurrency: 1,
        policies: vec!["ORION".into(), "GrandSLAM+".into(), "Janus".into()],
        scenarios: vec!["poisson".into(), "flash-crowd".into()],
        loads_rps: vec![3.0],
        seeds: (0..CHAOS_SEEDS).map(|k| seed.wrapping_add(k)).collect(),
        autoscalers: Some(vec!["static".into(), "queue-depth".into()]),
        admissions: None,
        faults: Some(vec!["zone-outage".into()]),
        observers: Some(vec!["flight-recorder".into()]),
        cluster: Some(ClusterConfig {
            nodes: 8,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 2,
        }),
        tenants: None,
        requests: 60,
        samples_per_point: 300,
        budget_step_ms: 5.0,
    }
}

/// Whether another round is due.
fn more_rounds(opts: &Opts, started: Instant, done: usize) -> bool {
    let min = if opts.trace {
        MIN_ROUNDS + 1
    } else {
        MIN_ROUNDS
    };
    done < min || started.elapsed().as_secs_f64() < opts.seconds
}

/// Counters read off policy reports.
#[derive(Debug, Default)]
struct Counts {
    generated: u64,
    shed: u64,
    failed: u64,
    retried: u64,
    scale_events: u64,
    faults_applied: u64,
    nodes_lost: u64,
    records: u64,
    trace_bytes: u64,
    condensed_hints: u64,
    raw_hints: u64,
}

impl Counts {
    fn add(&mut self, reports: &[PolicyReport]) {
        for report in reports {
            self.generated += report.serving.len() as u64;
            if let Some(capacity) = &report.serving.capacity {
                self.shed += capacity.shed as u64;
                self.failed += capacity.failed as u64;
                self.retried += capacity.retried as u64;
                self.scale_events += (capacity.scale_ups + capacity.scale_downs) as u64;
                self.faults_applied += capacity.faults_applied as u64;
                self.nodes_lost += capacity.nodes_lost as u64;
            }
            if let Some(flight) = &report.flight {
                self.records += flight.records_seen;
                self.trace_bytes += flight.trace.as_ref().map_or(0, |t| t.len() as u64);
            }
            if let (Some(synthesis), "Janus") = (&report.synthesis, report.name.as_str()) {
                self.condensed_hints += synthesis.condensed_hints as u64;
                self.raw_hints += synthesis.raw_hints as u64;
            }
        }
    }

    fn fill(&self, sheet: &mut Sheet) {
        sheet.set(
            "capacity.shed_fraction",
            self.shed as f64 / self.generated.max(1) as f64,
        );
        sheet.set("capacity.scale_events", self.scale_events as f64);
        sheet.set("chaos.faults_applied", self.faults_applied as f64);
        sheet.set("chaos.nodes_lost", self.nodes_lost as f64);
        sheet.set("chaos.retried", self.retried as f64);
        sheet.set("chaos.failed", self.failed as f64);
        sheet.set("observe.records", self.records as f64);
        sheet.set("observe.trace_bytes", self.trace_bytes as f64);
    }

    fn fill_synthesis(&self, sheet: &mut Sheet) {
        sheet.set("synthesizer.condensed_hints", self.condensed_hints as f64);
        sheet.set(
            "synthesizer.compression_ratio",
            self.condensed_hints as f64 / self.raw_hints.max(1) as f64,
        );
    }
}

fn warm_hit_rate(registry: &MetricsRegistry) -> f64 {
    let functions = registry.counter(ServingMetrics::FUNCTIONS);
    let cold = registry.counter(ServingMetrics::COLD_STARTS);
    1.0 - cold as f64 / functions.max(1) as f64
}

/// One pass of a session workload: set up every spec, then serve them all.
struct SessionRound {
    setup_s: f64,
    serve_s: f64,
    /// Each spec's set-up in reference units, in spec order.
    setup_ref: Vec<f64>,
    /// Each policy's serving run in reference units, spec by spec.
    serve_ref: Vec<f64>,
    reports: Vec<Vec<PolicyReport>>,
    events: u64,
    peak_queue_depth: usize,
    warm_hit_rate: f64,
}

fn session_round(
    specs: &[(String, SessionSpec)],
    cpus: &mut CpuRotation,
    tracer: &mut Tracer,
) -> Result<SessionRound, String> {
    let mut setup_s = 0.0;
    let mut setup_ref = Vec::with_capacity(specs.len());
    let ready = tracer.span("round.setup", "", |tracer| {
        specs
            .iter()
            .map(|(id, spec)| {
                // Set-up runs on every CPU (profiling and synthesis are
                // parallel), so it is timed against the kernel on each.
                let reference = cpus.reference_on_each()?;
                let started = process_cpu_s();
                let prep = serve::prepare(spec, id, tracer)?;
                let ready = prep.build_policies(tracer)?;
                let spec_s = process_cpu_s() - started;
                setup_s += spec_s;
                setup_ref.push(spec_s / reference);
                Ok((prep, ready))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let registry = MetricsRegistry::new();
    let metrics = ServingMetrics::intern(&registry);
    let mut arena = OpenLoopArena::new();
    let mut round = tracer.span("round.serve", "", |tracer| {
        let mut round = SessionRound {
            setup_s,
            serve_s: 0.0,
            setup_ref,
            serve_ref: Vec::new(),
            reports: Vec::with_capacity(ready.len()),
            events: 0,
            peak_queue_depth: 0,
            warm_hit_rate: 0.0,
        };
        for (prep, ready) in ready {
            let served = serve::serve(
                &prep,
                ready,
                &mut arena,
                &metrics,
                true,
                Some(&mut *cpus),
                tracer,
            )?;
            round.events += served.events;
            round.peak_queue_depth = round.peak_queue_depth.max(served.peak_queue_depth);
            round.serve_s += served.serve_s.iter().sum::<f64>();
            round.serve_ref.extend(served.serve_ref);
            round.reports.push(served.reports);
        }
        Ok::<_, String>(round)
    })?;
    round.warm_hit_rate = warm_hit_rate(&registry);
    Ok(round)
}

/// The pieces of a round (specs' set-ups, policies' serving runs or grid
/// points) over a run's untraced rounds, each in reference units (see
/// `reference.rs`).
#[derive(Debug, Default)]
struct RefTimes {
    samples: Vec<Vec<f64>>,
}

impl RefTimes {
    /// One round's pieces, in the same order every round.
    fn add(&mut self, pieces: &[f64]) {
        if self.samples.is_empty() {
            self.samples = vec![Vec::new(); pieces.len()];
        }
        for (samples, piece) in self.samples.iter_mut().zip(pieces) {
            samples.push(*piece);
        }
    }

    /// A round in reference units: the sum of each piece's median.
    fn round_ref(&self) -> f64 {
        self.samples
            .iter()
            .map(|samples| median(&mut samples.clone()))
            .sum()
    }
}

fn session_figures(specs: &[(String, SessionSpec)], round: &SessionRound) -> SimFigures {
    let mut figures = SimFigures::default();
    for ((id, _), reports) in specs.iter().zip(&round.reports) {
        figures.add(id, reports);
    }
    figures
}

/// The two session workloads and their operating points.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Fleet,
    Paper,
}

impl Kind {
    fn check(self, round: &SessionRound, figures: &SimFigures) -> Result<(), String> {
        match self {
            Kind::Fleet => {
                for report in round.reports.iter().flatten() {
                    let attainment = report.slo_attainment();
                    if attainment < FLEET_ATTAINMENT_FLOOR {
                        return Err(format!(
                            "regime: {} attains {attainment:.4} < floor {FLEET_ATTAINMENT_FLOOR}",
                            report.name
                        ));
                    }
                }
                if round.peak_queue_depth > FLEET_DEPTH_CEILING {
                    return Err(format!(
                        "regime: peak queue depth {} > ceiling {FLEET_DEPTH_CEILING}",
                        round.peak_queue_depth
                    ));
                }
            }
            Kind::Paper => {
                if figures.slo_attainment() < PAPER_SLO_TARGET {
                    return Err(format!(
                        "regime: Janus attains {:.4} < the paper's target {PAPER_SLO_TARGET}",
                        figures.slo_attainment()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Set-up and serving spans of one traced round.
#[derive(Debug, Default)]
struct LayerTimes {
    profile_s: Vec<f64>,
    synthesizer_s: Vec<f64>,
    orion_s: Vec<f64>,
    generate_s: Vec<f64>,
    openloop_s: Vec<f64>,
    executor_s: Vec<f64>,
}

impl LayerTimes {
    fn add(&mut self, tracer: &Tracer, mark: usize) {
        self.profile_s
            .push(tracer.total_since(mark, "profiler.profile"));
        self.synthesizer_s
            .push(tracer.total_since(mark, "synthesizer.build"));
        self.orion_s
            .push(tracer.total_since(mark, "baselines.orion_build"));
        self.generate_s
            .push(tracer.total_since(mark, "workloads.generate"));
        self.openloop_s
            .push(tracer.total_since(mark, "openloop.serve"));
        self.executor_s
            .push(tracer.total_since(mark, "executor.serve"));
    }

    fn fill(mut self, sheet: &mut Sheet, events: u64) {
        sheet.set("profiler.profile_s", median(&mut self.profile_s));
        sheet.set("synthesizer.build_s", median(&mut self.synthesizer_s));
        sheet.set("baselines.orion_build_s", median(&mut self.orion_s));
        sheet.set("workloads.generate_s", median(&mut self.generate_s));
        let openloop_s = median(&mut self.openloop_s);
        sheet.set("openloop.serve_s", openloop_s);
        sheet.set("openloop.events", events as f64);
        if events > 0 {
            sheet.set("openloop.ns_per_event", openloop_s * 1e9 / events as f64);
        }
        sheet.set("executor.serve_s", median(&mut self.executor_s));
    }
}

/// The layer cells, in the shapes of the workload whose first spec `prep`
/// is: its queue depth, node count and synthesized hints bundle.
fn layer_cells(
    sheet: &mut Sheet,
    prep: &Prepared,
    depth: usize,
    nodes: usize,
) -> Result<(), String> {
    let requests = RequestInputGenerator::new(prep.spec.seed, SimDuration::ZERO)
        .generate(&prep.workflow, OPTIMAL_REQUESTS);
    let mut optimal_s = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        std::hint::black_box(prep.build_on("Optimal", &requests)?);
        optimal_s.push(started.elapsed().as_secs_f64());
    }
    sheet.set("baselines.optimal_build_s", median(&mut optimal_s));
    sheet.set(
        "simcore.engine.push_pop_ns",
        cells::engine_push_pop_ns(depth),
    );
    sheet.set(
        "simcore.cluster.place_remove_ns",
        cells::cluster_place_remove_ns(nodes),
    );
    sheet.set(
        "simcore.pool.acquire_release_ns",
        cells::pool_acquire_release_ns(),
    );
    sheet.set("simcore.metrics.record_ns", cells::metrics_record_ns());
    let synthesizer = Synthesizer::new(SynthesizerConfig {
        weight: 1.0,
        exploration: ExplorationDepth::HeadOnly,
        budget_step_ms: prep.spec.budget_step_ms,
        ..SynthesizerConfig::default()
    })?;
    let (bundle, _) = synthesizer.synthesize(&prep.profile);
    let (decide_ns, hit_rate) = cells::adapter_decide(&bundle, prep.workflow.len(), prep.slo);
    sheet.set("adapter.decide_ns", decide_ns);
    sheet.set("adapter.hint_hit_rate", hit_rate);
    Ok(())
}

fn tracing_overhead(traced_s: &mut [f64], untraced_s: &mut [f64]) -> f64 {
    median(traced_s) / median(untraced_s) - 1.0
}

/// `fleet_steady` and `paper_closed`: session specs set up through the
/// profiler, request generator and policy registry, then served.
fn sessions(
    opts: &Opts,
    specs: Vec<(String, SessionSpec)>,
    kind: Kind,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut untraced = Tracer::new(false);
    let mut cpus = CpuRotation::new()?;
    let first = session_round(&specs, &mut cpus, &mut untraced)?;
    for ((id, spec), reports) in specs.iter().zip(&first.reports) {
        check_matches_session(spec, id, reports)?;
    }
    let figures = session_figures(&specs, &first);
    figures.check_complete()?;
    kind.check(&first, &figures)?;
    let digest = figures.digest();
    // Later rounds only repeat the pass for timing; the allocator's heap
    // grows over them by chance, so memory is read after the first.
    let rss_mb = peak_rss_mb()?;
    let mut counts = Counts::default();
    for reports in &first.reports {
        counts.add(reports);
    }
    let (events, depth, warm_hit_rate) =
        (first.events, first.peak_queue_depth, first.warm_hit_rate);
    let mut setup_s = vec![first.setup_s];
    let mut setup_ref = RefTimes::default();
    let mut serve_ref = RefTimes::default();
    setup_ref.add(&first.setup_ref);
    serve_ref.add(&first.serve_ref);
    let mut untraced_s = vec![first.setup_s + first.serve_s];
    let mut traced_s = Vec::new();
    let mut layers = LayerTimes::default();
    drop(first);

    while more_rounds(opts, started, untraced_s.len() + traced_s.len()) {
        let traced = opts.trace && traced_s.len() < untraced_s.len();
        let mark = tracer.mark();
        cpus.start_at(untraced_s.len() + traced_s.len());
        let round = session_round(
            &specs,
            &mut cpus,
            if traced { &mut *tracer } else { &mut untraced },
        )?;
        let round_digest = session_figures(&specs, &round).digest();
        if round_digest != digest {
            return Err(format!(
                "round {}: simulated figures differ from round 0",
                untraced_s.len() + traced_s.len()
            ));
        }
        let wall_s = round.setup_s + round.serve_s;
        if traced {
            layers.add(tracer, mark);
            traced_s.push(wall_s);
        } else {
            setup_s.push(round.setup_s);
            setup_ref.add(&round.setup_ref);
            serve_ref.add(&round.serve_ref);
            untraced_s.push(wall_s);
        }
    }

    let mut sheet = if opts.trace {
        let mut sheet = Sheet::new(&PER_LAYER);
        layers.fill(&mut sheet, events);
        sheet.set("openloop.peak_queue_depth", depth as f64);
        sheet.set("pool.warm_hit_rate", warm_hit_rate);
        let closed: u64 = specs
            .iter()
            .filter(|(_, spec)| spec.rps.is_none())
            .map(|(_, spec)| (spec.requests * spec.policies.len()) as u64)
            .sum();
        sheet.set("executor.requests", closed as f64);
        counts.fill(&mut sheet);
        counts.fill_synthesis(&mut sheet);
        let (id, spec) = &specs[0];
        let prep = serve::prepare(spec, id, &mut untraced)?;
        let nodes = spec.cluster.as_ref().map_or(1, |c| c.nodes);
        layer_cells(&mut sheet, &prep, depth, nodes)?;
        sheet.set(
            "trace.overhead_frac",
            tracing_overhead(&mut traced_s, &mut untraced_s),
        );
        sheet
    } else {
        let mut sheet = Sheet::new(&END_TO_END);
        sheet.set("setup_s", median(&mut setup_s));
        let serve = serve_ref.round_ref();
        sheet.set("sim_req_per_ref", counts.generated as f64 / serve);
        sheet.set(
            "cells_per_ref",
            specs.len() as f64 / (setup_ref.round_ref() + serve),
        );
        sheet
    };
    finish_sheet(&mut sheet, opts, &figures, rss_mb);
    Ok(Outcome {
        attempted: figures.generated,
        failed: figures.lost,
        digest,
        metrics: sheet,
    })
}

/// The simulated end-to-end figures and peak memory, on untraced runs.
fn finish_sheet(sheet: &mut Sheet, opts: &Opts, figures: &SimFigures, rss_mb: f64) {
    if !opts.trace {
        sheet.set("peak_rss_mb", rss_mb);
        sheet.set("slo_attainment", figures.slo_attainment());
        sheet.set("served_fraction", figures.served_fraction());
        sheet.set("sim_p99_e2e_ms", figures.janus_p99_ms());
        sheet.set("janus_cpu_vs_orion", figures.janus_cpu_vs_orion());
    }
}

/// One cold sweep into a fresh results store and one warm re-sweep of it.
struct ChaosRound {
    /// Host seconds to the first completed grid point of the cold sweep.
    setup_s: f64,
    cold_s: f64,
    warm_s: f64,
    /// Each cold grid point in reference units, by point index.
    cell_ref: Vec<f64>,
    cold: SweepResult,
    /// Per-cell store load and save times (traced rounds only).
    load_ms: Vec<f64>,
    save_ms: Vec<f64>,
    bytes: u64,
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        bytes += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(bytes)
}

/// A grid point the cold sweep completed, as its worker thread saw it.
struct Finished {
    index: usize,
    thread: std::thread::ThreadId,
    /// When the point was stored.
    end: Instant,
    wall_ms: f64,
    /// Seconds of the reference kernel, run on the worker right after.
    reference_s: f64,
    /// When the worker went on to its next point.
    resumed: Instant,
}

/// Each of `points` grid points in reference units: the wall time on its
/// worker thread from the thread's previous point, or the sweep's `start`,
/// to its own completion, over the reference kernel run right after it.
/// Each worker completes its points in order, so `finished` holds each
/// thread's points in order.
///
/// The sweep's CPU time cannot be split by point: a point's profiling runs
/// on threads of its own.
fn cell_ref(finished: &[Finished], start: Instant, points: usize) -> Result<Vec<f64>, String> {
    let mut cell_ref = vec![f64::NAN; points];
    let mut resumed: Vec<(std::thread::ThreadId, Instant)> = Vec::new();
    for point in finished {
        let previous = match resumed.iter_mut().find(|(t, _)| *t == point.thread) {
            Some((_, at)) => std::mem::replace(at, point.resumed),
            None => {
                resumed.push((point.thread, point.resumed));
                start
            }
        };
        let slot = cell_ref
            .get_mut(point.index)
            .ok_or_else(|| format!("grid point {} of {points}", point.index))?;
        *slot = (point.end - previous).as_secs_f64() / point.reference_s;
    }
    if cell_ref.iter().any(|s| s.is_nan()) {
        return Err("the cold sweep did not report every grid point".into());
    }
    Ok(cell_ref)
}

fn chaos_round(spec: &SweepSpec, dir: &Path, tracer: &mut Tracer) -> Result<ChaosRound, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = ResultsStore::open(&dir.join("store"))?;
    let first_point: OnceLock<f64> = OnceLock::new();
    let finished: Mutex<Vec<Finished>> = Mutex::new(Vec::new());
    let cold_span = tracer.mark();
    let wall_started = Instant::now();
    let started = process_cpu_s();
    let cold = tracer.span("sweep.cold", "", |_| {
        run_sweep_stored(spec, Some((&store, StoreMode::Reuse)), &|point| {
            let _ = first_point.set(process_cpu_s());
            let end = Instant::now();
            let reference_s = reference_s();
            finished
                .lock()
                .expect("no callback panics while holding the lock")
                .push(Finished {
                    index: point.index,
                    thread: std::thread::current().id(),
                    end,
                    wall_ms: point.wall_ms,
                    reference_s,
                    resumed: Instant::now(),
                });
        })
    })?;
    let cold_s = process_cpu_s() - started;
    let setup_s = first_point
        .get()
        .ok_or("the cold sweep completed no point")?
        - started;
    let finished = finished.into_inner().map_err(|e| e.to_string())?;
    let cell_ref = cell_ref(&finished, wall_started, cold.points.len())?;
    for point in finished {
        let start = point.end - std::time::Duration::from_secs_f64(point.wall_ms / 1000.0);
        tracer.record(
            "sweep.cell",
            point.index.to_string(),
            start,
            point.end,
            cold_span,
        );
    }
    let started = process_cpu_s();
    let warm = tracer.span("sweep.warm", "", |_| {
        run_sweep_stored(spec, Some((&store, StoreMode::Reuse)), &|_| {})
    })?;
    let warm_s = process_cpu_s() - started;

    if cold.cache_hits != 0 || cold.points.iter().any(|p| p.live_report().is_none()) {
        return Err("the cold sweep replayed cells from a fresh store".into());
    }
    if warm.cache_hits != warm.points.len() {
        return Err(format!(
            "the warm sweep replayed {} of {} cells",
            warm.cache_hits,
            warm.points.len()
        ));
    }
    use janus_core::experiments::report_json::ToJson;
    if warm.to_json().to_compact() != cold.to_json().to_compact()
        || warm.to_string() != cold.to_string()
    {
        return Err("the warm sweep is not byte-identical to the cold sweep".into());
    }

    let mut round = ChaosRound {
        setup_s,
        cold_s,
        warm_s,
        cell_ref,
        cold,
        load_ms: Vec::new(),
        save_ms: Vec::new(),
        bytes: dir_bytes(store.dir())?,
    };
    if tracer.enabled() {
        let resave = ResultsStore::open(&dir.join("resave"))?;
        for point in &round.cold.points {
            let doc = point.session.to_json();
            let started = Instant::now();
            let stored = store
                .load(&doc, RESULTS_EPOCH)?
                .ok_or("a stored cell went missing")?;
            round.load_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            resave.save(&stored.cell, RESULTS_EPOCH, stored.wall_ms, &stored.result)?;
            round.save_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(round)
}

fn chaos_figures(cold: &SweepResult) -> SimFigures {
    let mut figures = SimFigures::default();
    for point in &cold.points {
        if let Some(report) = point.live_report() {
            figures.add(&point.index.to_string(), &report.policies);
        }
    }
    figures
}

/// Each value of an axis other than its first must change the figures of
/// some cell against the same cell with the first value.
fn check_axis<T: PartialEq + Clone + std::fmt::Debug>(
    sweep: &SweepResult,
    axis: &str,
    values: &[T],
    get: impl Fn(&SessionSpec) -> T,
    set: impl Fn(&mut SessionSpec, T),
) -> Result<(), String> {
    let Some(base) = values.first() else {
        return Ok(());
    };
    for value in &values[1..] {
        let moves = sweep.points.iter().any(|point| {
            if get(&point.session) != *value {
                return false;
            }
            let mut probe = point.session.clone();
            set(&mut probe, base.clone());
            sweep
                .points
                .iter()
                .any(|other| other.session == probe && other.policies != point.policies)
        });
        if !moves {
            return Err(format!(
                "regime: {axis} value {value:?} changes no cell against {base:?}; drop it"
            ));
        }
    }
    Ok(())
}

fn chaos_gate(spec: &SweepSpec, cold: &SweepResult, counts: &Counts) -> Result<(), String> {
    for point in &cold.points {
        for cell in &point.policies {
            let generated = cell.served + cell.shed + cell.failed;
            let served = cell.served as f64 / generated.max(1) as f64;
            if served < CHAOS_SERVED_FLOOR {
                return Err(format!(
                    "regime: cell {} policy {} serves {served:.3} < floor {CHAOS_SERVED_FLOOR}",
                    point.index, cell.name
                ));
            }
        }
    }
    let named = |names: &[String]| -> Vec<Option<String>> {
        names.iter().map(|n| Some(n.clone())).collect()
    };
    check_axis(
        cold,
        "scenario",
        &named(&spec.scenarios),
        |s| s.scenario.clone(),
        |s, v| s.scenario = v,
    )?;
    check_axis(cold, "seed", &spec.seeds, |s| s.seed, |s, v| s.seed = v)?;
    let autoscalers = named(spec.autoscalers.as_deref().unwrap_or_default());
    check_axis(
        cold,
        "autoscaler",
        &autoscalers,
        |s| s.autoscaler.clone(),
        |s, v| s.autoscaler = v,
    )?;
    if counts.faults_applied == 0 || counts.nodes_lost == 0 {
        return Err("regime: the zone outage never took a node down".into());
    }
    if counts.records == 0 {
        return Err("regime: the flight recorder saw no records".into());
    }
    Ok(())
}

/// `chaos_sweep`: a stored grid sweep, cold then warm, on the worker
/// threads of `run_sweep_stored`.
fn chaos(opts: &Opts, dir: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    let spec = chaos_spec(opts.seed);
    let started = Instant::now();
    let mut untraced = Tracer::new(false);
    let first = chaos_round(&spec, &dir.join("round"), &mut untraced)?;
    let figures = chaos_figures(&first.cold);
    figures.check_complete()?;
    let mut counts = Counts::default();
    for point in &first.cold.points {
        counts.add(&point.live_report().expect("checked live").policies);
    }
    chaos_gate(&spec, &first.cold, &counts)?;
    let digest = figures.digest();

    // The first cell again, through the layers: it must serve exactly what
    // the sweep's ServingSession served.
    let cell = &first.cold.points[0];
    let cell_spec = cell.session.clone();
    let mark = tracer.mark();
    let prep = serve::prepare(&cell_spec, "cell0", tracer)?;
    let ready = prep.build_policies(tracer)?;
    let registry = MetricsRegistry::new();
    let metrics = ServingMetrics::intern(&registry);
    let mut arena = OpenLoopArena::new();
    let served = serve::serve(&prep, ready, &mut arena, &metrics, true, None, tracer)?;
    let sweep_report = cell.live_report().expect("checked live");
    for (ours, theirs) in served.reports.iter().zip(&sweep_report.policies) {
        if ours.serving != theirs.serving || ours.flight != theirs.flight {
            return Err(format!(
                "cell 0 policy {}: set-up-then-serve path differs from the sweep's session",
                ours.name
            ));
        }
    }
    let rss_mb = peak_rss_mb()?;
    let mut cell_layers = LayerTimes::default();
    cell_layers.add(tracer, mark);
    let mut cell_counts = Counts::default();
    cell_counts.add(&served.reports);

    let mut setup_s = vec![first.setup_s];
    let mut cell_ref = RefTimes::default();
    cell_ref.add(&first.cell_ref);
    let mut untraced_s = vec![first.cold_s + first.warm_s];
    let mut traced_s = Vec::new();
    let mut cell_ms: Vec<f64> = first.cold.points.iter().map(|p| p.wall_ms).collect();
    let mut imbalance = vec![stripe_imbalance(&first.cold)];
    let (mut load_ms, mut save_ms, bytes) = (Vec::new(), Vec::new(), first.bytes);
    let cells = first.cold.points.len() as f64;
    drop(first);

    while more_rounds(opts, started, untraced_s.len() + traced_s.len()) {
        let traced = opts.trace && traced_s.len() < untraced_s.len();
        let round = chaos_round(
            &spec,
            &dir.join("round"),
            if traced { &mut *tracer } else { &mut untraced },
        )?;
        if chaos_figures(&round.cold).digest() != digest {
            return Err(format!(
                "round {}: simulated figures differ from round 0",
                untraced_s.len() + traced_s.len()
            ));
        }
        cell_ms.extend(round.cold.points.iter().map(|p| p.wall_ms));
        imbalance.push(stripe_imbalance(&round.cold));
        if traced {
            traced_s.push(round.cold_s + round.warm_s);
            load_ms.extend(round.load_ms);
            save_ms.extend(round.save_ms);
        } else {
            setup_s.push(round.setup_s);
            cell_ref.add(&round.cell_ref);
            untraced_s.push(round.cold_s + round.warm_s);
        }
    }

    let mut sheet = if opts.trace {
        let mut sheet = Sheet::new(&PER_LAYER);
        cell_layers.fill(&mut sheet, served.events);
        sheet.set("openloop.peak_queue_depth", served.peak_queue_depth as f64);
        sheet.set("pool.warm_hit_rate", warm_hit_rate(&registry));
        counts.fill(&mut sheet);
        cell_counts.fill_synthesis(&mut sheet);
        sheet.set(
            "observe.overhead_frac",
            observer_overhead(&prep, &mut arena, &metrics)?,
        );
        sheet.set("results.save_ms", median(&mut save_ms));
        sheet.set("results.load_ms", median(&mut load_ms));
        sheet.set("results.hit_ratio", 1.0);
        sheet.set("results.bytes", bytes as f64);
        sheet.set(
            "sweep.cell_ms_max",
            cell_ms.iter().copied().fold(0.0, f64::max),
        );
        sheet.set("sweep.cell_ms_p50", median(&mut cell_ms));
        sheet.set("sweep.stripe_imbalance", median(&mut imbalance));
        let nodes = cell_spec.cluster.as_ref().map_or(1, |c| c.nodes);
        layer_cells(&mut sheet, &prep, served.peak_queue_depth, nodes)?;
        sheet.set(
            "trace.overhead_frac",
            tracing_overhead(&mut traced_s, &mut untraced_s),
        );
        sheet
    } else {
        let mut sheet = Sheet::new(&END_TO_END);
        let cold = cell_ref.round_ref();
        sheet.set("setup_s", median(&mut setup_s));
        sheet.set("sim_req_per_ref", figures.generated as f64 / cold);
        sheet.set("cells_per_ref", cells / cold);
        sheet
    };
    finish_sheet(&mut sheet, opts, &figures, rss_mb);
    Ok(Outcome {
        attempted: figures.generated,
        failed: figures.lost,
        digest,
        metrics: sheet,
    })
}

/// `run_sweep_stored` runs its cold cells in contiguous stripes, one per
/// worker thread: the slowest stripe's busy time over the mean.
fn stripe_imbalance(cold: &SweepResult) -> f64 {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(cold.points.len().max(1));
    let stripe_len = cold.points.len().div_ceil(threads).max(1);
    let busy: Vec<f64> = cold
        .points
        .chunks(stripe_len)
        .map(|stripe| stripe.iter().map(|p| p.wall_ms).sum())
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    busy.iter().copied().fold(0.0, f64::max) / mean
}

/// Serving time of the prepared cell with the flight recorder on over off,
/// minus one; median of alternating pairs, policies rebuilt for each serve.
fn observer_overhead(
    prep: &Prepared,
    arena: &mut OpenLoopArena,
    metrics: &ServingMetrics,
) -> Result<f64, String> {
    let mut quiet = Tracer::new(false);
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..OBSERVER_PAIRS {
        for (observe, samples) in [(false, &mut off), (true, &mut on)] {
            let ready = prep.build_policies(&mut quiet)?;
            let started = Instant::now();
            std::hint::black_box(serve::serve(
                prep, ready, arena, metrics, observe, None, &mut quiet,
            )?);
            samples.push(started.elapsed().as_secs_f64());
        }
    }
    Ok(median(&mut on) / median(&mut off) - 1.0)
}
