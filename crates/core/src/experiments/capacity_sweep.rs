//! Capacity sweep: every arrival scenario under every capacity regime.
//!
//! The scenario sweep (PR 2) asks how load *shape* changes serving on a
//! fixed fleet; this sweep asks what elastic capacity buys. Each cell of the
//! (scenario × autoscaler × admission) grid is one [`ServingSession`] run of
//! a single sizing policy on a small spread fleet, and reports the four
//! quantities that summarize a capacity regime: SLO violation rate (over
//! served requests), shed rate, node-seconds consumed (the capacity bill)
//! and peak queue depth (admitted-and-unfinished requests).
//!
//! With the defaults — `{static, utilization} × {admit-all, queue-shed}` —
//! the grid turns the PR 2 flash crowd from a queueing-collapse story into a
//! capacity story: at equal offered load the utilization-threshold
//! autoscaler absorbs the spike that collapses the static fleet, and
//! shedding trades a bounded rejection rate for latency on what it admits.
//! Request conservation (`admitted + shed == generated`) is validated in
//! every cell.

use crate::experiments::perf::{rate_per_sec, MIN_WALL_MS};
use crate::session::{Load, ServingSession, SessionReport};
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::parallel;
use janus_simcore::resources::Millicores;
use janus_workloads::apps::PaperApp;
use std::fmt;
use std::time::Instant;

/// Configuration of one capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitySweepConfig {
    /// Application under test.
    pub app: PaperApp,
    /// Batch size (concurrency) requests are served at.
    pub concurrency: u32,
    /// The one sizing policy every cell serves under (capacity effects are
    /// the variable; sizing is held constant).
    pub policy: String,
    /// Scenario names to sweep (resolved from the scenario registry).
    pub scenarios: Vec<String>,
    /// Autoscaler names to sweep (resolved from the autoscaler registry).
    pub autoscalers: Vec<String>,
    /// Admission-policy names to sweep (resolved from the admission
    /// registry).
    pub admissions: Vec<String>,
    /// Starting cluster layout — small spread nodes, so fleet size drives
    /// co-location and the autoscaler has something to trade off.
    pub cluster: ClusterConfig,
    /// Requests generated per cell.
    pub requests: usize,
    /// Long-run mean arrival rate every scenario is normalized to.
    pub rps: f64,
    /// Request / profiling seed.
    pub seed: u64,
    /// Profiler samples per grid point.
    pub samples_per_point: usize,
    /// Synthesizer budget step in milliseconds.
    pub budget_step_ms: f64,
}

impl CapacitySweepConfig {
    /// The starting fleet capacity experiments grow from: two spread
    /// 8-core nodes (the paper's single 52-core box would never need to
    /// scale at these loads).
    pub fn small_fleet() -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 1,
        }
    }

    /// Paper-scale sweep: every built-in scenario × {static, utilization} ×
    /// {admit-all, queue-shed} at a load that overloads the starting fleet.
    pub fn paper_default(app: PaperApp) -> Self {
        CapacitySweepConfig {
            app,
            concurrency: 1,
            policy: "GrandSLAM".into(),
            scenarios: vec![
                "poisson".into(),
                "diurnal".into(),
                "bursty".into(),
                "flash-crowd".into(),
                "trace-replay".into(),
            ],
            autoscalers: vec!["static".into(), "utilization".into()],
            admissions: vec!["admit-all".into(), "queue-shed".into()],
            cluster: Self::small_fleet(),
            requests: 400,
            rps: 6.0,
            seed: 7,
            samples_per_point: 1000,
            budget_step_ms: 1.0,
        }
    }

    /// Reduced scale for smoke runs and CI (`--quick`): same regimes, fewer
    /// scenarios, requests and profile samples.
    pub fn quick(app: PaperApp) -> Self {
        CapacitySweepConfig {
            scenarios: vec!["poisson".into(), "flash-crowd".into()],
            requests: 120,
            samples_per_point: 300,
            budget_step_ms: 5.0,
            ..Self::paper_default(app)
        }
    }
}

/// One cell of the capacity grid: one scenario served under one
/// (autoscaler, admission) regime.
#[derive(Debug, Clone)]
pub struct CapacityCell {
    /// Scenario name the cell ran under.
    pub scenario: String,
    /// Autoscaler name the cell ran under.
    pub autoscaler: String,
    /// Admission-policy name the cell ran under.
    pub admission: String,
    /// SLO violation rate over served requests, in `[0, 1]`.
    pub slo_violation_rate: f64,
    /// Shed fraction of the offered load, in `[0, 1]`.
    pub shed_rate: f64,
    /// Requests admitted and served.
    pub admitted: usize,
    /// Requests shed at arrival.
    pub shed: usize,
    /// Node-seconds consumed (the capacity bill of the cell).
    pub node_seconds: f64,
    /// Peak admitted-and-unfinished request count (serving queue depth).
    pub peak_queue_depth: usize,
    /// Peak non-retired node count.
    pub peak_nodes: usize,
    /// Applied scale-up actions.
    pub scale_ups: usize,
    /// Applied scale-down actions.
    pub scale_downs: usize,
    /// Wall-clock time of the cell, in ms (clamped to stay positive).
    pub wall_ms: f64,
    /// Requests processed per wall-clock second (zero-duration-guarded).
    pub requests_per_sec: f64,
    /// The full session report behind the cell.
    pub report: SessionReport,
}

/// The outcome of a capacity sweep: one invariant-checked cell per
/// (scenario, autoscaler, admission) triple, in configuration order
/// (scenario-major, then autoscaler, then admission).
#[derive(Debug, Clone)]
pub struct CapacitySweepResult {
    /// Configuration the sweep ran with.
    pub config: CapacitySweepConfig,
    /// Grid cells, in configuration order.
    pub cells: Vec<CapacityCell>,
}

impl CapacitySweepResult {
    /// The cell of one (scenario, autoscaler, admission) triple.
    pub fn cell(&self, scenario: &str, autoscaler: &str, admission: &str) -> Option<&CapacityCell> {
        self.cells.iter().find(|c| {
            c.scenario == scenario && c.autoscaler == autoscaler && c.admission == admission
        })
    }

    /// SLO violation rate of one cell, in `[0, 1]`.
    pub fn violation_rate(&self, scenario: &str, autoscaler: &str, admission: &str) -> Option<f64> {
        self.cell(scenario, autoscaler, admission)
            .map(|c| c.slo_violation_rate)
    }

    /// Shed rate of one cell, in `[0, 1]`.
    pub fn shed_rate(&self, scenario: &str, autoscaler: &str, admission: &str) -> Option<f64> {
        self.cell(scenario, autoscaler, admission)
            .map(|c| c.shed_rate)
    }

    /// Cross-cell invariants on top of each session's own validation: the
    /// grid is complete and ordered, requests are conserved in every cell
    /// (`admitted + shed == generated`), and every rate is a valid fraction.
    pub fn validate(&self) -> Result<(), String> {
        let expected = self.config.scenarios.len()
            * self.config.autoscalers.len()
            * self.config.admissions.len();
        if self.cells.len() != expected {
            return Err(format!(
                "capacity sweep produced {} cells for a {}-cell grid",
                self.cells.len(),
                expected
            ));
        }
        let mut i = 0;
        for scenario in &self.config.scenarios {
            for autoscaler in &self.config.autoscalers {
                for admission in &self.config.admissions {
                    let cell = &self.cells[i];
                    i += 1;
                    if &cell.scenario != scenario
                        || &cell.autoscaler != autoscaler
                        || &cell.admission != admission
                    {
                        return Err(format!(
                            "cell order broken: got ({}, {}, {}), expected ({scenario}, \
                             {autoscaler}, {admission})",
                            cell.scenario, cell.autoscaler, cell.admission
                        ));
                    }
                    if cell.admitted + cell.shed != self.config.requests {
                        return Err(format!(
                            "cell ({scenario}, {autoscaler}, {admission}): admitted {} + shed {} \
                             != generated {}",
                            cell.admitted, cell.shed, self.config.requests
                        ));
                    }
                    for (what, rate) in [
                        ("violation rate", cell.slo_violation_rate),
                        ("shed rate", cell.shed_rate),
                    ] {
                        if !(0.0..=1.0).contains(&rate) {
                            return Err(format!(
                                "cell ({scenario}, {autoscaler}, {admission}): {what} {rate} \
                                 outside [0, 1]"
                            ));
                        }
                    }
                    if !(cell.node_seconds.is_finite() && cell.node_seconds > 0.0) {
                        return Err(format!(
                            "cell ({scenario}, {autoscaler}, {admission}): non-positive \
                             node-seconds {}",
                            cell.node_seconds
                        ));
                    }
                    if !(cell.requests_per_sec.is_finite() && cell.wall_ms > 0.0) {
                        return Err(format!(
                            "cell ({scenario}, {autoscaler}, {admission}): degenerate timing \
                             ({} req/s over {} ms)",
                            cell.requests_per_sec, cell.wall_ms
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for CapacitySweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Capacity sweep: {} under `{}`, {} requests/cell @ {} rps on {}x{}mc ({:?})",
            self.config.app.short_name(),
            self.config.policy,
            self.config.requests,
            self.config.rps,
            self.config.cluster.nodes,
            self.config.cluster.node_capacity.get(),
            self.config.cluster.placement,
        )?;
        writeln!(
            f,
            "{:>14} {:>12} {:>11} {:>10} {:>8} {:>12} {:>11} {:>11}",
            "scenario",
            "autoscaler",
            "admission",
            "viol rate",
            "shed",
            "node-sec",
            "peak queue",
            "peak nodes"
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "{:>14} {:>12} {:>11} {:>9.1}% {:>7.1}% {:>12.1} {:>11} {:>11}",
                cell.scenario,
                cell.autoscaler,
                cell.admission,
                cell.slo_violation_rate * 100.0,
                cell.shed_rate * 100.0,
                cell.node_seconds,
                cell.peak_queue_depth,
                cell.peak_nodes
            )?;
        }
        Ok(())
    }
}

/// Run the capacity sweep: one single-policy session per (scenario,
/// autoscaler, admission) cell, fanned out across threads. Deterministic in
/// the seed; results come back in configuration order.
pub fn capacity_sweep(config: &CapacitySweepConfig) -> Result<CapacitySweepResult, String> {
    capacity_sweep_observed(config, None)
}

/// [`capacity_sweep`] with an observer attached to every cell's session
/// (`janus run capacity --trace`): each cell's [`SessionReport`] then
/// carries a flight report, and the per-cell traces can be collected via
/// [`SessionReport::trace`](crate::session::SessionReport::trace).
pub fn capacity_sweep_observed(
    config: &CapacitySweepConfig,
    observer: Option<&str>,
) -> Result<CapacitySweepResult, String> {
    if config.scenarios.is_empty() {
        return Err("capacity sweep needs at least one scenario".into());
    }
    if config.autoscalers.is_empty() || config.admissions.is_empty() {
        return Err("capacity sweep needs at least one autoscaler and one admission policy".into());
    }
    let mut grid = Vec::new();
    for scenario in &config.scenarios {
        for autoscaler in &config.autoscalers {
            for admission in &config.admissions {
                grid.push((scenario.clone(), autoscaler.clone(), admission.clone()));
            }
        }
    }
    let cells: Vec<Result<CapacityCell, String>> =
        parallel::map(grid, |(scenario, autoscaler, admission)| {
            // janus-lint: allow(nondeterminism) — wall-clock cost of the cell, reported as metadata; cell results are seed-pure
            let started = Instant::now();
            let mut builder = ServingSession::builder()
                .app(config.app)
                .concurrency(config.concurrency)
                .policy(&config.policy)
                .load(Load::Open {
                    requests: config.requests,
                    rps: config.rps,
                })
                .cluster(config.cluster.clone())
                .scenario(&scenario)
                .autoscaler(&autoscaler)
                .admission(&admission)
                .seed(config.seed)
                .samples_per_point(config.samples_per_point)
                .budget_step_ms(config.budget_step_ms);
            if let Some(observer) = observer {
                builder = builder.observe(observer);
            }
            let report = builder
                .run()
                .map_err(|e| format!("cell ({scenario}, {autoscaler}, {admission}): {e}"))?;
            let wall_ms = (started.elapsed().as_secs_f64() * 1000.0).max(MIN_WALL_MS);
            let serving = report.serving(&config.policy).ok_or_else(|| {
                format!("policy `{}` missing from its own session", config.policy)
            })?;
            let capacity = serving.capacity.clone().ok_or_else(|| {
                format!("cell ({scenario}, {autoscaler}, {admission}): no capacity report")
            })?;
            Ok(CapacityCell {
                scenario,
                autoscaler,
                admission,
                slo_violation_rate: serving.slo_violation_rate(),
                shed_rate: capacity.shed_rate(),
                admitted: capacity.admitted,
                shed: capacity.shed,
                node_seconds: capacity.node_seconds,
                peak_queue_depth: capacity.peak_inflight,
                peak_nodes: capacity.peak_nodes,
                scale_ups: capacity.scale_ups,
                scale_downs: capacity.scale_downs,
                wall_ms,
                requests_per_sec: rate_per_sec(config.requests as u64, wall_ms),
                report,
            })
        });
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
    let result = CapacitySweepResult {
        config: config.clone(),
        cells,
    };
    result.validate()?;
    Ok(result)
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};

/// `capacity` as a registered [`Experiment`]: the IA scenario × autoscaler ×
/// admission grid at the configured scale.
pub struct CapacitySweepExperiment;

impl Experiment for CapacitySweepExperiment {
    fn name(&self) -> &str {
        "capacity"
    }

    fn describe(&self) -> &str {
        "Capacity sweep: every arrival scenario under every capacity regime"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        let config = ctx.capacity_sweep(PaperApp::IntelligentAssistant);
        let result = capacity_sweep_observed(&config, ctx.observer_name())?;
        // Cells all serve the same policy, so cell traces are qualified with
        // their grid coordinates before they share one artefact.
        for cell in &result.cells {
            if let Some(trace) = cell.report.trace() {
                let at = format!("{}/{}/{}", cell.scenario, cell.autoscaler, cell.admission);
                ctx.append_trace(&trace, Some(&at))?;
            }
        }
        Ok(ExperimentOutput::single(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CapacitySweepConfig {
        CapacitySweepConfig {
            scenarios: vec!["flash-crowd".into()],
            requests: 90,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..CapacitySweepConfig::quick(PaperApp::IntelligentAssistant)
        }
    }

    #[test]
    fn autoscaling_beats_the_static_fleet_under_the_flash_crowd() {
        // The acceptance criterion of the elastic-capacity PR: at equal
        // offered load, the utilization-threshold autoscaler demonstrably
        // reduces the SLO violation rate versus the static cluster, and
        // requests are conserved in every cell.
        let result = capacity_sweep(&tiny_config()).unwrap();
        result.validate().unwrap();
        assert_eq!(result.cells.len(), 4);
        let static_rate = result
            .violation_rate("flash-crowd", "static", "admit-all")
            .unwrap();
        let scaled_rate = result
            .violation_rate("flash-crowd", "utilization", "admit-all")
            .unwrap();
        assert!(
            scaled_rate < static_rate,
            "autoscaled violation rate {scaled_rate} must beat static {static_rate}"
        );
        let scaled = result
            .cell("flash-crowd", "utilization", "admit-all")
            .unwrap();
        assert!(scaled.scale_ups > 0, "the spike must trigger scale-ups");
        assert!(scaled.peak_nodes > result.config.cluster.nodes);
        // Both regimes bill real capacity. (No ordering assertion: the
        // static fleet *collapses* under the spike — its run stretches over
        // a longer simulated span, so two slow nodes can out-bill a larger
        // fleet that finishes quickly.)
        let static_cell = result.cell("flash-crowd", "static", "admit-all").unwrap();
        assert!(scaled.node_seconds > 0.0 && static_cell.node_seconds > 0.0);
        // Shedding sheds under overload, and never on the admit-all column.
        assert_eq!(static_cell.shed, 0);
        let shed_cell = result.cell("flash-crowd", "static", "queue-shed").unwrap();
        assert!(
            shed_cell.shed > 0,
            "queue-shed must shed during the static-fleet spike"
        );
        for cell in &result.cells {
            assert_eq!(cell.admitted + cell.shed, result.config.requests);
            assert!(cell.requests_per_sec > 0.0);
        }
        let shown = format!("{result}");
        assert!(shown.contains("viol rate"));
        assert!(shown.contains("flash-crowd"));
    }

    #[test]
    fn traced_capacity_runs_fill_the_sink_with_qualified_cells() {
        use crate::experiments::api::{Experiment, Scale, TraceSink};
        use janus_observe::TraceReport;

        let sink = TraceSink::new();
        assert!(sink.is_empty());
        let ctx = ExperimentCtx::new(Scale::Quick)
            .with_seed(Some(7))
            .with_trace(sink.clone());
        assert_eq!(ctx.observer_name(), Some("flight-recorder"));
        CapacitySweepExperiment.run(&ctx).unwrap();
        let trace = sink.take();
        assert!(sink.is_empty(), "take drains the sink");
        let report = TraceReport::from_jsonl(&trace).unwrap();
        // One qualified label per grid cell: 2 scenarios x 2 x 2 at --quick.
        assert_eq!(report.policies.len(), 8);
        let labels: Vec<&str> = report.policies.iter().map(|p| p.policy.as_str()).collect();
        assert!(
            labels.contains(&"GrandSLAM@flash-crowd/static/admit-all"),
            "{labels:?}"
        );
        for policy in &report.policies {
            assert!(
                policy.spans.arrivals > 0,
                "{}: empty cell trace",
                policy.policy
            );
            assert!(
                !policy.time_series.points.is_empty(),
                "{}: no telemetry ticks",
                policy.policy
            );
        }
        // Same seed, same sink contents, byte for byte.
        let again = TraceSink::new();
        CapacitySweepExperiment
            .run(&ctx.clone().with_trace(again.clone()))
            .unwrap();
        assert_eq!(again.take(), trace);
    }

    #[test]
    fn capacity_sweep_is_deterministic_and_rejects_bad_grids() {
        let config = CapacitySweepConfig {
            scenarios: vec!["poisson".into()],
            autoscalers: vec!["queue-depth".into()],
            admissions: vec!["token-bucket".into()],
            requests: 50,
            ..tiny_config()
        };
        let a = capacity_sweep(&config).unwrap();
        let b = capacity_sweep(&config).unwrap();
        let serving =
            |r: &CapacitySweepResult| r.cells[0].report.serving("GrandSLAM").unwrap().clone();
        assert_eq!(serving(&a), serving(&b));
        assert_eq!(
            serving(&a).capacity.unwrap().events,
            serving(&b).capacity.unwrap().events
        );
        let err = capacity_sweep(&CapacitySweepConfig {
            scenarios: vec![],
            ..config.clone()
        })
        .unwrap_err();
        assert!(err.contains("at least one scenario"), "{err}");
        let err = capacity_sweep(&CapacitySweepConfig {
            autoscalers: vec![],
            ..config.clone()
        })
        .unwrap_err();
        assert!(err.contains("at least one autoscaler"), "{err}");
        let err = capacity_sweep(&CapacitySweepConfig {
            autoscalers: vec!["hypergrowth".into()],
            ..config
        })
        .unwrap_err();
        assert!(err.contains("unknown autoscaler"), "{err}");
    }
}
