//! Capacity sweep: every arrival scenario under every capacity regime.
//!
//! The scenario sweep asks how load *shape* changes serving on a fixed
//! fleet; this sweep asks what elastic capacity buys. The (scenario ×
//! autoscaler × admission) grid is a [`SweepSpec`] served by [`run_sweep`]:
//! each point is one session of a single sizing policy on a small spread
//! fleet. [`CapacitySweepResult`] views the returned [`SweepResult`] as one
//! row per point with the four quantities that summarize a capacity regime:
//! SLO violation rate (over served requests), shed rate, node-seconds
//! consumed (the capacity bill) and peak queue depth (admitted-and-unfinished
//! requests).
//!
//! With the defaults — `{static, utilization} × {admit-all, queue-shed}` —
//! the grid turns the flash crowd from a queueing-collapse story into a
//! capacity story: at equal offered load the utilization-threshold
//! autoscaler absorbs the spike that collapses the static fleet, and
//! shedding trades a bounded rejection rate for latency on what it admits.
//! Every session validates request conservation (`admitted + shed ==
//! generated`) before the view reads it.

use crate::experiments::scenario_sweep::served_report;
use crate::experiments::spec::SweepSpec;
use crate::experiments::sweep::{rate_per_sec, run_sweep, SweepPoint, SweepResult};
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::resources::Millicores;
use janus_workloads::apps::PaperApp;
use std::fmt;

/// The paper-scale sweep: every built-in scenario × {static, utilization} ×
/// {admit-all, queue-shed} at a load that overloads the starting fleet of
/// two spread 8-core nodes (the paper's single 52-core box would never need
/// to scale at these loads).
pub(crate) fn paper_spec(app: PaperApp) -> SweepSpec {
    SweepSpec {
        name: "capacity".into(),
        app,
        concurrency: 1,
        policies: vec!["GrandSLAM".into()],
        scenarios: vec![
            "poisson".into(),
            "diurnal".into(),
            "bursty".into(),
            "flash-crowd".into(),
            "trace-replay".into(),
        ],
        loads_rps: vec![6.0],
        seeds: vec![7],
        autoscalers: Some(vec!["static".into(), "utilization".into()]),
        admissions: Some(vec!["admit-all".into(), "queue-shed".into()]),
        faults: None,
        observers: None,
        cluster: Some(ClusterConfig {
            nodes: 2,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 1,
        }),
        tenants: None,
        requests: 400,
        samples_per_point: 1000,
        budget_step_ms: 1.0,
    }
}

/// Reduced scale for smoke runs and CI (`--quick`): same regimes, fewer
/// scenarios, requests and profile samples.
pub(crate) fn quick_spec(app: PaperApp) -> SweepSpec {
    SweepSpec {
        scenarios: vec!["poisson".into(), "flash-crowd".into()],
        requests: 120,
        samples_per_point: 300,
        budget_step_ms: 5.0,
        ..paper_spec(app)
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
}

impl CapacityCell {
    /// The row of one grid point: its single policy's serving and capacity
    /// reports.
    fn from_point(point: &SweepPoint) -> Result<Self, String> {
        let session = &point.session;
        let report = served_report(point)?;
        let policy = report
            .policies
            .first()
            .ok_or_else(|| format!("point {}: no policy ran", point.index))?;
        let capacity = policy
            .serving
            .capacity
            .as_ref()
            .ok_or_else(|| format!("point {}: no capacity report", point.index))?;
        Ok(CapacityCell {
            scenario: session.scenario.clone().unwrap_or_default(),
            autoscaler: capacity.autoscaler.clone(),
            admission: capacity.admission.clone(),
            slo_violation_rate: policy.serving.slo_violation_rate(),
            shed_rate: capacity.shed_rate(),
            admitted: capacity.admitted,
            shed: capacity.shed,
            node_seconds: capacity.node_seconds,
            peak_queue_depth: capacity.peak_inflight,
            peak_nodes: capacity.peak_nodes,
            scale_ups: capacity.scale_ups,
            scale_downs: capacity.scale_downs,
            wall_ms: point.wall_ms,
            requests_per_sec: rate_per_sec(session.requests as u64, point.wall_ms),
        })
    }
}

/// The outcome of a capacity sweep: a view over the sweep with one row per
/// (scenario, autoscaler, admission) point, in grid order (scenario-major,
/// then autoscaler, then admission).
#[derive(Debug, Clone)]
pub struct CapacitySweepResult {
    /// The sweep behind the view.
    pub sweep: SweepResult,
    /// One row per grid point, in grid order.
    pub cells: Vec<CapacityCell>,
}

impl CapacitySweepResult {
    /// View a completed single-policy capacity sweep, one row per point.
    fn from_sweep(sweep: SweepResult) -> Result<Self, String> {
        let cells = sweep
            .points
            .iter()
            .map(CapacityCell::from_point)
            .collect::<Result<_, _>>()?;
        let result = CapacitySweepResult { sweep, cells };
        result.validate()?;
        Ok(result)
    }

    /// The cell of one (scenario, autoscaler, admission) triple.
    pub fn cell(&self, scenario: &str, autoscaler: &str, admission: &str) -> Option<&CapacityCell> {
        self.cells.iter().find(|c| {
            c.scenario == scenario && c.autoscaler == autoscaler && c.admission == admission
        })
    }

    /// Shed rate of one cell, in `[0, 1]`.
    pub fn shed_rate(&self, scenario: &str, autoscaler: &str, admission: &str) -> Option<f64> {
        self.cell(scenario, autoscaler, admission)
            .map(|c| c.shed_rate)
    }

    /// The starting fleet every cell grew from.
    pub(crate) fn cluster(&self) -> ClusterConfig {
        self.sweep.spec.cluster.clone().unwrap_or_default()
    }

    /// Invariants on top of the sweep's and each session's own validation:
    /// every cell billed real capacity.
    pub fn validate(&self) -> Result<(), String> {
        for cell in &self.cells {
            if !(cell.node_seconds.is_finite() && cell.node_seconds > 0.0) {
                return Err(format!(
                    "cell ({}, {}, {}): non-positive node-seconds {}",
                    cell.scenario, cell.autoscaler, cell.admission, cell.node_seconds
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for CapacitySweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.sweep.spec;
        let cluster = self.cluster();
        writeln!(
            f,
            "# Capacity sweep: {} under `{}`, {} requests/cell @ {} rps on {}x{}mc ({:?})",
            spec.app.short_name(),
            spec.policies[0],
            spec.requests,
            spec.loads_rps[0],
            cluster.nodes,
            cluster.node_capacity.get(),
            cluster.placement,
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

/// Run a capacity-sweep spec through [`run_sweep`] and view the result.
/// With an `observers` axis every cell's session carries a flight report,
/// and its trace is reachable through the point's live report.
pub(crate) fn capacity_sweep(spec: &SweepSpec) -> Result<CapacitySweepResult, String> {
    CapacitySweepResult::from_sweep(run_sweep(spec)?)
}

use crate::experiments::api::{ExperimentCtx, ExperimentOutput};

/// The `capacity` experiment: the IA scenario × autoscaler × admission grid
/// at the configured scale.
pub(crate) fn run_capacity(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let mut spec = ctx.sweep_spec(PaperApp::IntelligentAssistant, paper_spec, quick_spec);
    spec.observers = ctx.observer_name().map(|name| vec![name.to_string()]);
    let result = capacity_sweep(&spec)?;
    // Cells all serve the same policy, so cell traces are qualified with
    // their grid coordinates before they share one artefact.
    ctx.append_sweep_traces(&result.sweep, |s| {
        [&s.scenario, &s.autoscaler, &s.admission]
            .map(|axis| axis.as_deref().unwrap_or_default())
            .join("/")
    })?;
    Ok(ExperimentOutput::single(result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            scenarios: vec!["flash-crowd".into()],
            requests: 90,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..quick_spec(PaperApp::IntelligentAssistant)
        }
    }

    #[test]
    fn autoscaling_beats_the_static_fleet_under_the_flash_crowd() {
        // The acceptance criterion of the elastic-capacity PR: at equal
        // offered load, the utilization-threshold autoscaler demonstrably
        // reduces the SLO violation rate versus the static cluster, and
        // requests are conserved in every cell.
        let result = capacity_sweep(&tiny_spec()).unwrap();
        result.validate().unwrap();
        assert_eq!(result.cells.len(), 4);
        let violation_rate = |autoscaler| {
            let cell = result.cell("flash-crowd", autoscaler, "admit-all");
            cell.unwrap().slo_violation_rate
        };
        let static_rate = violation_rate("static");
        let scaled_rate = violation_rate("utilization");
        assert!(
            scaled_rate < static_rate,
            "autoscaled violation rate {scaled_rate} must beat static {static_rate}"
        );
        let scaled = result
            .cell("flash-crowd", "utilization", "admit-all")
            .unwrap();
        assert!(scaled.scale_ups > 0, "the spike must trigger scale-ups");
        assert!(scaled.peak_nodes > result.cluster().nodes);
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
            assert_eq!(cell.admitted + cell.shed, result.sweep.spec.requests);
            assert!(cell.requests_per_sec > 0.0);
        }
        let shown = format!("{result}");
        assert!(shown.contains("viol rate"));
        assert!(shown.contains("flash-crowd"));
    }

    #[test]
    fn traced_capacity_runs_fill_the_sink_with_qualified_cells() {
        use crate::experiments::api::{Scale, TraceSink};
        use janus_observe::TraceReport;

        let sink = TraceSink::new();
        assert!(sink.is_empty());
        let ctx = ExperimentCtx::new(Scale::Quick)
            .with_seed(Some(7))
            .with_trace(sink.clone());
        assert_eq!(ctx.observer_name(), Some("flight-recorder"));
        run_capacity(&ctx).unwrap();
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
        run_capacity(&ctx.clone().with_trace(again.clone())).unwrap();
        assert_eq!(again.take(), trace);
    }

    #[test]
    fn capacity_sweep_is_deterministic_and_rejects_bad_grids() {
        let spec = SweepSpec {
            scenarios: vec!["poisson".into()],
            autoscalers: Some(vec!["queue-depth".into()]),
            admissions: Some(vec!["token-bucket".into()]),
            requests: 50,
            ..tiny_spec()
        };
        let a = capacity_sweep(&spec).unwrap();
        let b = capacity_sweep(&spec).unwrap();
        let serving = |r: &CapacitySweepResult| {
            r.sweep.points[0]
                .live_report()
                .unwrap()
                .serving("GrandSLAM")
                .unwrap()
                .clone()
        };
        assert_eq!(serving(&a), serving(&b));
        assert_eq!(
            serving(&a).capacity.unwrap().events,
            serving(&b).capacity.unwrap().events
        );
        let err = capacity_sweep(&SweepSpec {
            scenarios: vec![],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("`scenarios`: axis must not be empty"), "{err}");
        let err = capacity_sweep(&SweepSpec {
            autoscalers: Some(vec![]),
            ..spec.clone()
        })
        .unwrap_err();
        assert!(
            err.contains("`autoscalers`: axis must not be empty"),
            "{err}"
        );
        let err = capacity_sweep(&SweepSpec {
            autoscalers: Some(vec!["hypergrowth".into()]),
            ..spec
        })
        .unwrap_err();
        assert!(err.contains("unknown autoscaler"), "{err}");
    }
}
