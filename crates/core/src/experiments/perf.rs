//! Perf trajectory: how fast the serving hot path itself runs.
//!
//! Every other experiment in this module measures *simulated* quantities
//! (latencies, CPU, SLO attainment). This one measures the simulator: it
//! drives a fixed grid of arrival scenarios through the open-loop engine
//! under a constant-cost sizing policy and reports wall-clock events/sec,
//! per-experiment wall time, peak event-queue depth and the number of metric
//! samples recorded through the pre-interned handles. `janus run perf --out
//! BENCH_perf.json` writes the result — the perf baseline every later
//! optimisation PR is measured against.
//!
//! The policy is a [`FixedSizingPolicy`] on purpose: profiling and hint
//! synthesis would dominate the measurement, and the quantity under test is
//! the event loop (queue, pool, cluster, interference model, metrics
//! recording), not policy construction.

use janus_observe::{FlightRecorder, ObserverContext};
use janus_platform::executor::ExecutorConfig;
use janus_platform::metrics::ServingMetrics;
use janus_platform::openloop::{OpenLoopArena, OpenLoopSimulation};
use janus_platform::policy::FixedSizingPolicy;
use janus_scenarios::{ScenarioContext, ScenarioRegistry};
use janus_simcore::metrics::{MetricsRegistry, MetricsSnapshot};
use janus_simcore::resources::Millicores;
use janus_simcore::stats::StreamingSummary;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{GeneratorSource, RequestInput, RequestInputGenerator};
use janus_workloads::workflow::Workflow;
use std::fmt;
use std::time::Instant;

/// Configuration of one perf-trajectory run.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfConfig {
    /// Application whose workflow is served.
    pub app: PaperApp,
    /// Scenario names driven through the grid (resolved from the built-in
    /// scenario registry).
    pub scenarios: Vec<String>,
    /// Requests generated per scenario.
    pub requests: usize,
    /// Long-run mean arrival rate every scenario is normalized to. High on
    /// purpose: the bench wants deep queues and real event pressure, so the
    /// paper-scale grid deliberately runs the single-node fleet in the
    /// *overload* regime (overcommitted placement, near-total SLO
    /// violations) — the committed `BENCH_perf.json` baseline measures
    /// simulator throughput under that pressure, not steady-state serving
    /// quality.
    pub rps: f64,
    /// Fixed per-function CPU allocation of the serving policy.
    pub allocation_mc: u32,
    /// Timed repetitions per scenario; the fastest is reported (standard
    /// min-of-N wall-clock noise rejection).
    pub repetitions: usize,
    /// Request-generation seed.
    pub seed: u64,
}

impl PerfConfig {
    /// Paper-scale grid: every built-in scenario, 5000 requests each.
    pub fn paper_default() -> Self {
        PerfConfig {
            app: PaperApp::IntelligentAssistant,
            scenarios: ScenarioRegistry::with_builtins()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            requests: 5000,
            rps: 20.0,
            allocation_mc: 2000,
            repetitions: 3,
            seed: 7,
        }
    }

    /// Reduced scale for smoke runs and CI (`--quick`): same grid, fewer
    /// requests. A quick cell finishes in ~2 ms, so a single timing is
    /// noise-dominated on a shared CI machine; min-of-5 keeps the
    /// regression gate stable for ~100 ms of extra wall time.
    pub fn quick() -> Self {
        PerfConfig {
            requests: 500,
            repetitions: 5,
            ..Self::paper_default()
        }
    }
}

/// Measurements of one (scenario) grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCell {
    /// Scenario name the cell ran under.
    pub scenario: String,
    /// Requests served.
    pub requests: usize,
    /// Engine events processed per run.
    pub events: u64,
    /// Fastest wall time across the configured repetitions, in ms —
    /// observers disabled, i.e. the zero-cost path every session pays.
    pub wall_ms: f64,
    /// Events per wall-clock second (from the fastest repetition).
    pub events_per_sec: f64,
    /// Peak event-queue depth of the run.
    pub peak_queue_depth: usize,
    /// Peak number of arrivals resident in memory at once: requests buffered
    /// inside the source plus the one pending arrival in the event queue.
    /// Slice-backed cells sit at ≈ the request count (the slice is already
    /// materialized); the streaming cell stays at ≈ 1 — the bounded-memory
    /// invariant `validate` enforces.
    pub peak_resident_arrivals: usize,
    /// Whether the cell drew arrivals lazily from a generator stream
    /// (`true`) or replayed a materialized slice (`false`). Cells of
    /// different shapes are never compared against each other: the headline
    /// `mean_events_per_sec` summarizes slice-backed cells only, keeping it
    /// comparable with pre-streaming history entries.
    pub streaming: bool,
    /// Fastest wall time with a full flight recorder attached, in ms — the
    /// overhead-guard companion measurement of `wall_ms`.
    pub observed_wall_ms: f64,
    /// Events per wall-clock second with the flight recorder attached.
    pub observed_events_per_sec: f64,
    /// Observation overhead in percent:
    /// `(observed_wall_ms / wall_ms - 1) * 100`. Can dip below zero within
    /// wall-clock noise; must stay finite.
    pub observer_overhead_pct: f64,
}

/// The outcome of a perf-trajectory run.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Configuration the run used.
    pub config: PerfConfig,
    /// Per-scenario measurements, in `config.scenarios` order.
    pub cells: Vec<PerfCell>,
    /// Sum of the per-cell (fastest-repetition) wall times, in ms.
    pub total_wall_ms: f64,
    /// Sum of per-cell events (one repetition each).
    pub total_events: u64,
    /// Metric samples recorded through the pre-interned handles across the
    /// whole grid (all repetitions).
    pub samples_recorded: u64,
    /// Full metrics snapshot backing `samples_recorded`.
    pub metrics: MetricsSnapshot,
    /// Streaming summary of the per-cell events/sec figures.
    pub events_per_sec_summary: StreamingSummary,
    /// Mean of the per-cell `observer_overhead_pct` figures — what a full
    /// flight recorder costs relative to the observer-off path.
    pub mean_observer_overhead_pct: f64,
}

impl PerfResult {
    /// Events/sec of one scenario's slice-backed cell.
    pub fn events_per_sec(&self, scenario: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && !c.streaming)
            .map(|c| c.events_per_sec)
    }

    /// Structural invariants of a well-formed result.
    pub fn validate(&self) -> Result<(), String> {
        // One slice-backed cell per scenario plus the streaming cell.
        if self.cells.len() != self.config.scenarios.len() + 1 {
            return Err(format!(
                "perf grid produced {} cells for {} scenarios (+1 streaming)",
                self.cells.len(),
                self.config.scenarios.len()
            ));
        }
        match self.cells.iter().filter(|c| c.streaming).count() {
            1 if self.cells.last().is_some_and(|c| c.streaming) => {}
            1 => return Err("the streaming cell must come last".into()),
            n => {
                return Err(format!(
                    "perf grid produced {n} streaming cells, expected 1"
                ))
            }
        }
        for cell in &self.cells {
            if cell.peak_resident_arrivals == 0 {
                return Err(format!(
                    "scenario `{}` reported zero resident arrivals",
                    cell.scenario
                ));
            }
            // The bounded-memory invariant: a streaming cell that buffers
            // more than its single stream's head has lost the lazy pull.
            if cell.streaming && cell.peak_resident_arrivals > 2 {
                return Err(format!(
                    "streaming cell materialized {} arrivals at once; \
                     the lazy pull is broken",
                    cell.peak_resident_arrivals
                ));
            }
        }
        for cell in &self.cells {
            if cell.events == 0 {
                return Err(format!("scenario `{}` processed no events", cell.scenario));
            }
            if !(cell.wall_ms.is_finite() && cell.wall_ms > 0.0) {
                return Err(format!(
                    "scenario `{}` reported non-positive wall time {}",
                    cell.scenario, cell.wall_ms
                ));
            }
            if cell.peak_queue_depth == 0 {
                return Err(format!(
                    "scenario `{}` reported an empty event queue",
                    cell.scenario
                ));
            }
            if !(cell.observed_wall_ms.is_finite() && cell.observed_wall_ms > 0.0) {
                return Err(format!(
                    "scenario `{}` reported non-positive observed wall time {}",
                    cell.scenario, cell.observed_wall_ms
                ));
            }
            if !(cell.observed_events_per_sec.is_finite() && cell.observed_events_per_sec > 0.0) {
                return Err(format!(
                    "scenario `{}` reported a degenerate observed rate {}",
                    cell.scenario, cell.observed_events_per_sec
                ));
            }
            if !cell.observer_overhead_pct.is_finite() {
                return Err(format!(
                    "scenario `{}` reported a non-finite observer overhead",
                    cell.scenario
                ));
            }
        }
        if self.samples_recorded == 0 {
            return Err("perf run recorded no metric samples".into());
        }
        Ok(())
    }
}

impl fmt::Display for PerfResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Perf trajectory: {} open loop, {} requests/scenario @ {} rps, {} mc fixed",
            self.config.app.short_name(),
            self.config.requests,
            self.config.rps,
            self.config.allocation_mc
        )?;
        writeln!(
            f,
            "{:>14} {:>6} {:>9} {:>9} {:>11} {:>13} {:>10} {:>9} {:>13} {:>7}",
            "scenario",
            "mode",
            "requests",
            "events",
            "wall (ms)",
            "events/sec",
            "peak queue",
            "resident",
            "observed/s",
            "ovh %"
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "{:>14} {:>6} {:>9} {:>9} {:>11.2} {:>13.0} {:>10} {:>9} {:>13.0} {:>7.1}",
                cell.scenario,
                if cell.streaming { "stream" } else { "slice" },
                cell.requests,
                cell.events,
                cell.wall_ms,
                cell.events_per_sec,
                cell.peak_queue_depth,
                cell.peak_resident_arrivals,
                cell.observed_events_per_sec,
                cell.observer_overhead_pct
            )?;
        }
        writeln!(
            f,
            "total: {} events in {:.2} ms wall; {} metric samples recorded; \
             flight-recorder overhead {:.1}% mean",
            self.total_events,
            self.total_wall_ms,
            self.samples_recorded,
            self.mean_observer_overhead_pct
        )?;
        Ok(())
    }
}

/// Smallest wall-clock interval a cell is billed for, in ms (1 µs). Clamping
/// keeps throughput figures finite on `--quick` runs whose measured wall
/// time can round to ~0.
pub const MIN_WALL_MS: f64 = 1e-3;

/// `count` events over `wall_ms` as a per-second rate, guarded against
/// degenerate timings: a ~0 wall time would produce `inf` (and a NaN input
/// NaN), which the hand-rolled JSON writer encodes as `null` — breaking
/// every typed reader of the emitted artefact. Wall time is clamped to
/// [`MIN_WALL_MS`]; non-finite wall times yield a rate of 0.
pub fn rate_per_sec(count: u64, wall_ms: f64) -> f64 {
    if !wall_ms.is_finite() {
        return 0.0;
    }
    count as f64 / (wall_ms.max(MIN_WALL_MS) / 1000.0)
}

/// Run the perf trajectory: serve `config.requests` under every scenario of
/// the grid through one shared open-loop arena and pre-interned metrics,
/// timing each cell with the wall clock.
pub fn perf_trajectory(config: &PerfConfig) -> Result<PerfResult, String> {
    if config.scenarios.is_empty() {
        return Err("perf grid needs at least one scenario".into());
    }
    if config.requests == 0 {
        return Err("perf grid needs at least one request per scenario".into());
    }
    if config.repetitions == 0 {
        return Err("perf grid needs at least one repetition".into());
    }
    let workflow = config.app.workflow();
    let slo = config.app.default_slo(1);
    let registry = ScenarioRegistry::with_builtins();
    // Setup-time interning; the timed loops below never resolve a name.
    let metrics_registry = MetricsRegistry::new();
    let metrics = ServingMetrics::intern(&metrics_registry);
    let mut arena = OpenLoopArena::new();
    let sim = OpenLoopSimulation::new(workflow.clone(), ExecutorConfig::paper_serving(slo, 1));

    let mut cells = Vec::with_capacity(config.scenarios.len());
    let mut events_per_sec_summary = StreamingSummary::new();
    let mut overhead_summary = StreamingSummary::new();
    for scenario in &config.scenarios {
        let ctx = ScenarioContext {
            base_rps: config.rps,
            requests: config.requests,
            seed: config.seed,
        };
        let process = registry
            .build(scenario, &ctx)
            .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
        let mut generator = RequestInputGenerator::with_sampler(config.seed, process.sampler());
        let requests: Vec<RequestInput> = generator.generate(&workflow, config.requests);

        let mut wall_ms = f64::INFINITY;
        let mut observed_wall_ms = f64::INFINITY;
        let mut events = 0;
        let mut peak = 0;
        let mut resident = 0;
        for _ in 0..config.repetitions {
            let mut policy = FixedSizingPolicy::uniform(
                "fixed",
                &workflow,
                Millicores::new(config.allocation_mc),
            )
            .map_err(|e| format!("perf policy: {e}"))?;
            // janus-lint: allow(nondeterminism) — min-of-N wall timing IS the measurement; the simulated report stays seed-pure
            let started = Instant::now();
            let report = sim.run_traced(
                &mut policy,
                &requests,
                &mut arena,
                Some(&metrics),
                None,
                None,
            )?;
            let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
            if report.len() != config.requests {
                return Err(format!(
                    "scenario `{scenario}`: served {} of {} requests",
                    report.len(),
                    config.requests
                ));
            }
            wall_ms = wall_ms.min(elapsed_ms);
            events = arena.events_processed();
            peak = arena.peak_queue_depth();
            resident = arena.peak_resident_arrivals();

            // The overhead-guard companion: the identical run with a full
            // flight recorder attached. Timed under the same min-of-N
            // discipline, so `observed_wall_ms / wall_ms` quantifies what
            // observation costs — and the baseline `wall_ms` above keeps
            // measuring the observer-off path the regression gate watches.
            let mut policy = FixedSizingPolicy::uniform(
                "fixed",
                &workflow,
                Millicores::new(config.allocation_mc),
            )
            .map_err(|e| format!("perf policy: {e}"))?;
            let mut recorder = FlightRecorder::new(&ObserverContext {
                seed: config.seed,
                policy: "fixed".to_string(),
                requests: config.requests,
                zones: 1,
                slo,
            });
            // janus-lint: allow(nondeterminism) — same min-of-N wall timing for the observer-on companion run
            let started = Instant::now();
            let observed = sim.run_traced(
                &mut policy,
                &requests,
                &mut arena,
                Some(&metrics),
                None,
                Some(&mut recorder),
            )?;
            let observed_ms = started.elapsed().as_secs_f64() * 1000.0;
            if observed.len() != config.requests {
                return Err(format!(
                    "scenario `{scenario}` (observed): served {} of {} requests",
                    observed.len(),
                    config.requests
                ));
            }
            observed_wall_ms = observed_wall_ms.min(observed_ms);
        }
        // The same clamp keeps `wall_ms` itself positive, so validate()'s
        // non-positive check cannot reject a legitimately-too-fast cell.
        let wall_ms = wall_ms.max(MIN_WALL_MS);
        let observed_wall_ms = observed_wall_ms.max(MIN_WALL_MS);
        let events_per_sec = rate_per_sec(events, wall_ms);
        events_per_sec_summary.record(events_per_sec);
        let overhead = (observed_wall_ms / wall_ms - 1.0) * 100.0;
        overhead_summary.record(overhead);
        cells.push(PerfCell {
            scenario: scenario.clone(),
            requests: config.requests,
            events,
            wall_ms,
            events_per_sec,
            peak_queue_depth: peak,
            peak_resident_arrivals: resident,
            streaming: false,
            observed_wall_ms,
            observed_events_per_sec: rate_per_sec(events, observed_wall_ms),
            observer_overhead_pct: overhead,
        });
    }
    // The streaming-shape cell: the first grid scenario again, but with
    // arrivals drawn lazily from the generator as simulated time advances
    // instead of replaying a materialized slice. Deliberately excluded from
    // both summaries (it is a different shape of work — per-arrival RNG
    // draws live inside the timed region), so `mean_events_per_sec` stays
    // comparable with pre-streaming history entries; the regression gate
    // compares like against like.
    cells.push(streaming_cell(
        config, &workflow, &registry, &sim, &mut arena,
    )?);

    let snapshot = metrics_registry.snapshot();
    let result = PerfResult {
        config: config.clone(),
        total_wall_ms: cells.iter().map(|c| c.wall_ms).sum(),
        total_events: cells.iter().map(|c| c.events).sum(),
        samples_recorded: snapshot.total_samples(),
        metrics: snapshot,
        events_per_sec_summary,
        mean_observer_overhead_pct: overhead_summary.mean(),
        cells,
    };
    result.validate()?;
    Ok(result)
}

/// Measure the streaming-shape cell: the first grid scenario served through
/// [`GeneratorSource`] — arrivals drawn one at a time as simulated time
/// advances, nothing materialized up front. The generator shares the seed
/// and sampler construction of the slice-backed cell, so it is draw-for-draw
/// the same workload; only the arrival *residency* differs, which is exactly
/// what `peak_resident_arrivals` captures (≈ 1 here vs ≈ `requests` for the
/// slice). Metrics stay detached so the slice-backed cells keep owning the
/// recorded-sample accounting.
fn streaming_cell(
    config: &PerfConfig,
    workflow: &Workflow,
    registry: &ScenarioRegistry,
    sim: &OpenLoopSimulation,
    arena: &mut OpenLoopArena,
) -> Result<PerfCell, String> {
    let scenario = &config.scenarios[0];
    let ctx = ScenarioContext {
        base_rps: config.rps,
        requests: config.requests,
        seed: config.seed,
    };
    let process = registry
        .build(scenario, &ctx)
        .map_err(|e| format!("scenario `{scenario}` (streaming): {e}"))?;
    let mut wall_ms = f64::INFINITY;
    let mut observed_wall_ms = f64::INFINITY;
    let mut events = 0;
    let mut peak = 0;
    let mut resident = 0;
    for _ in 0..config.repetitions {
        let mut policy =
            FixedSizingPolicy::uniform("fixed", workflow, Millicores::new(config.allocation_mc))
                .map_err(|e| format!("perf policy: {e}"))?;
        let mut source = GeneratorSource::new(
            RequestInputGenerator::with_sampler(config.seed, process.sampler()),
            config.requests,
        );
        // janus-lint: allow(nondeterminism) — min-of-N wall timing IS the measurement; the simulated report stays seed-pure
        let started = Instant::now();
        let report = sim.run_from_source(&mut policy, &mut source, arena, None, None, None)?;
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        if report.len() != config.requests {
            return Err(format!(
                "scenario `{scenario}` (streaming): served {} of {} requests",
                report.len(),
                config.requests
            ));
        }
        wall_ms = wall_ms.min(elapsed_ms);
        events = arena.events_processed();
        peak = arena.peak_queue_depth();
        resident = arena.peak_resident_arrivals();

        // The observed companion, same discipline as the slice-backed cells.
        let mut policy =
            FixedSizingPolicy::uniform("fixed", workflow, Millicores::new(config.allocation_mc))
                .map_err(|e| format!("perf policy: {e}"))?;
        let mut recorder = FlightRecorder::new(&ObserverContext {
            seed: config.seed,
            policy: "fixed".to_string(),
            requests: config.requests,
            zones: 1,
            slo: config.app.default_slo(1),
        });
        let mut source = GeneratorSource::new(
            RequestInputGenerator::with_sampler(config.seed, process.sampler()),
            config.requests,
        );
        // janus-lint: allow(nondeterminism) — same min-of-N wall timing for the observer-on companion run
        let started = Instant::now();
        let observed = sim.run_from_source(
            &mut policy,
            &mut source,
            arena,
            None,
            None,
            Some(&mut recorder),
        )?;
        let observed_ms = started.elapsed().as_secs_f64() * 1000.0;
        if observed.len() != config.requests {
            return Err(format!(
                "scenario `{scenario}` (streaming, observed): served {} of {} requests",
                observed.len(),
                config.requests
            ));
        }
        observed_wall_ms = observed_wall_ms.min(observed_ms);
    }
    let wall_ms = wall_ms.max(MIN_WALL_MS);
    let observed_wall_ms = observed_wall_ms.max(MIN_WALL_MS);
    Ok(PerfCell {
        scenario: scenario.clone(),
        requests: config.requests,
        events,
        wall_ms,
        events_per_sec: rate_per_sec(events, wall_ms),
        peak_queue_depth: peak,
        peak_resident_arrivals: resident,
        streaming: true,
        observed_wall_ms,
        observed_events_per_sec: rate_per_sec(events, observed_wall_ms),
        observer_overhead_pct: (observed_wall_ms / wall_ms - 1.0) * 100.0,
    })
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};

/// `perf` as a registered [`Experiment`]: the simulator's events/sec
/// trajectory across the built-in arrival scenarios.
pub struct PerfExperiment;

impl Experiment for PerfExperiment {
    fn name(&self) -> &str {
        "perf"
    }

    fn describe(&self) -> &str {
        "Perf trajectory: simulator events/sec across the built-in arrival scenarios"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(perf_trajectory(
            &ctx.perf_config(),
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            scenarios: vec!["poisson".into(), "flash-crowd".into()],
            requests: 60,
            repetitions: 2,
            ..PerfConfig::quick()
        }
    }

    #[test]
    fn perf_trajectory_measures_every_cell() {
        let config = tiny_config();
        let result = perf_trajectory(&config).unwrap();
        result.validate().unwrap();
        // One slice-backed cell per scenario plus the streaming cell.
        assert_eq!(result.cells.len(), 3);
        for cell in &result.cells {
            // 60 arrivals + 3 function completions each (IA workflow).
            assert_eq!(cell.events, 60 * 4);
            assert!(cell.events_per_sec > 0.0);
            assert!(cell.peak_queue_depth >= 1);
        }
        // Slice-backed cells hold the whole request set resident; the
        // streaming cell holds one pending arrival — the bounded-memory
        // invariant of the lazy pull.
        let (stream, slices) = result.cells.split_last().unwrap();
        assert!(stream.streaming);
        assert_eq!(stream.scenario, "poisson");
        assert_eq!(stream.peak_resident_arrivals, 1);
        for cell in slices {
            assert!(!cell.streaming);
            assert_eq!(cell.peak_resident_arrivals, 60);
        }
        // Same seed, same sampler construction: the streaming cell is
        // draw-for-draw the slice-backed poisson cell.
        assert_eq!(stream.events, slices[0].events);
        // The streaming cell stays out of the headline summary, which keeps
        // the regression gate comparing slice-shaped runs against the
        // pre-streaming history.
        assert_eq!(result.events_per_sec_summary.count(), 2);
        // Summed totals cover all three cells.
        assert_eq!(result.total_events, 3 * 60 * 4);
        // 2 scenarios × 2 repetitions × 2 runs (baseline + observed) × 60
        // e2e samples, plus the same again ×3 for per-function samples.
        assert_eq!(
            result.samples_recorded,
            2 * 2 * 2 * 60 + 2 * 2 * 2 * 60 * 3,
            "every run of every repetition records through the handles"
        );
        assert_eq!(
            result
                .metrics
                .counter(janus_platform::metrics::ServingMetrics::REQUESTS),
            2 * 2 * 2 * 60
        );
        // The overhead guard: the observed companion processes the same
        // events, and the disabled-path figures stay the headline numbers.
        for cell in &result.cells {
            assert!(cell.observed_events_per_sec > 0.0);
            assert!(cell.observer_overhead_pct.is_finite());
        }
        assert!(result.mean_observer_overhead_pct.is_finite());
        assert!(result.events_per_sec("poisson").unwrap() > 0.0);
        assert!(result.events_per_sec("tsunami").is_none());
        let shown = format!("{result}");
        assert!(shown.contains("events/sec"));
        assert!(shown.contains("poisson"));
    }

    #[test]
    fn zero_duration_rates_stay_finite_and_json_safe() {
        use crate::experiments::ToJson;
        use janus_json as json;
        // The guard itself: zero, sub-clamp, non-finite.
        assert!(rate_per_sec(1000, 0.0).is_finite());
        assert_eq!(rate_per_sec(1000, 0.0), 1000.0 / (MIN_WALL_MS / 1000.0));
        assert_eq!(rate_per_sec(0, 0.0), 0.0);
        assert!(rate_per_sec(1000, 1e-9).is_finite());
        assert_eq!(rate_per_sec(1000, f64::NAN), 0.0);
        assert_eq!(rate_per_sec(1000, f64::INFINITY), 0.0);
        // A result whose cell measured ~0 wall time still validates and
        // round-trips through the hand-rolled JSON with numeric (non-null)
        // rate fields.
        let mut result = perf_trajectory(&PerfConfig {
            scenarios: vec!["poisson".into()],
            requests: 30,
            repetitions: 1,
            ..PerfConfig::quick()
        })
        .unwrap();
        result.cells[0].wall_ms = MIN_WALL_MS; // what a ~0 timing clamps to
        result.cells[0].events_per_sec = rate_per_sec(result.cells[0].events, 0.0);
        result.validate().unwrap();
        let doc = json::parse(&result.to_json().to_pretty()).unwrap();
        let cell = &doc.require("cells").unwrap().as_array().unwrap()[0];
        let rate = cell.require("events_per_sec").unwrap().as_f64();
        assert!(rate.is_some(), "rate must decode as a number, not null");
        assert!(rate.unwrap().is_finite() && rate.unwrap() > 0.0);
        assert!(cell.require("wall_ms").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn perf_trajectory_rejects_degenerate_grids() {
        let err = perf_trajectory(&PerfConfig {
            scenarios: vec![],
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("at least one scenario"), "{err}");
        let err = perf_trajectory(&PerfConfig {
            requests: 0,
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("at least one request"), "{err}");
        let err = perf_trajectory(&PerfConfig {
            repetitions: 0,
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("repetition"), "{err}");
        let err = perf_trajectory(&PerfConfig {
            scenarios: vec!["tsunami".into()],
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
