//! Chaos resilience: which capacity regime degrades most gracefully when a
//! zone dies mid flash-crowd.
//!
//! The capacity sweep asks what elasticity buys under load *shape*; this
//! experiment asks what it buys under *failure*. The (autoscaler ×
//! admission) grid is a [`SweepSpec`] served by [`run_sweep`]: every point
//! serves the same flash-crowd request set on a multi-zone spread fleet
//! while the fault injector (`zone-outage`) kills a whole zone partway
//! through the spike — the worst correlated failure the topology admits.
//! Both sizing policies run paired inside each point, so the grid separates
//! three effects that a single run confounds: what the sizing policy
//! contributes, what the autoscaler recovers, and what admission control
//! protects.
//!
//! [`ChaosResilienceResult`] views the returned [`SweepResult`] as one row
//! per (point, policy) with the graceful-degradation quantities: SLO
//! attainment over what was served, shed and failed counts, fault-triggered
//! retries, node-seconds billed and nodes lost. Every session validates
//! conservation (`admitted + shed == generated`, `admitted == served +
//! failed`), and the whole grid is bit-reproducible in the seed — the fault
//! schedule is part of the replayed experiment, not ambient randomness.

use crate::experiments::scenario_sweep::served_report;
use crate::experiments::spec::SweepSpec;
use crate::experiments::sweep::{run_sweep, SweepPoint, SweepResult};
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::resources::Millicores;
use janus_workloads::apps::PaperApp;
use std::fmt;

/// The paper-scale grid: {static, utilization} × {admit-all, queue-shed}
/// under a flash crowd with a mid-run zone outage, on four spread 8-core
/// nodes across two zones, so the outage halves capacity in one event.
pub(crate) fn paper_spec(app: PaperApp) -> SweepSpec {
    SweepSpec {
        name: "chaos_resilience".into(),
        app,
        concurrency: 1,
        policies: vec!["GrandSLAM".into(), "Janus".into()],
        scenarios: vec!["flash-crowd".into()],
        loads_rps: vec![6.0],
        seeds: vec![7],
        autoscalers: Some(vec!["static".into(), "utilization".into()]),
        admissions: Some(vec!["admit-all".into(), "queue-shed".into()]),
        faults: Some(vec!["zone-outage".into()]),
        observers: None,
        cluster: Some(ClusterConfig {
            nodes: 4,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 2,
        }),
        tenants: None,
        requests: 300,
        samples_per_point: 1000,
        budget_step_ms: 1.0,
    }
}

/// Reduced scale for smoke runs and CI (`--quick`).
pub(crate) fn quick_spec(app: PaperApp) -> SweepSpec {
    SweepSpec {
        requests: 90,
        samples_per_point: 300,
        budget_step_ms: 5.0,
        ..paper_spec(app)
    }
}

/// One row of the grid: one sizing policy under one (autoscaler, admission)
/// regime, with the fault applied.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Autoscaler name the cell ran under.
    pub autoscaler: String,
    /// Admission-policy name the cell ran under.
    pub admission: String,
    /// Sizing-policy name of this row.
    pub policy: String,
    /// SLO attainment over served requests, in `[0, 1]`.
    pub slo_attainment: f64,
    /// Requests admitted and served to completion.
    pub served: u64,
    /// Requests shed at arrival.
    pub shed: u64,
    /// Admitted requests lost to the fault (retry budget exhausted).
    pub failed: u64,
    /// Fault-interrupted requests that re-enqueued and started over.
    pub retried: u64,
    /// Nodes force-killed by the fault.
    pub nodes_lost: u64,
    /// Node-seconds billed (the capacity bill of surviving the fault).
    pub node_seconds: f64,
    /// Peak non-retired node count.
    pub peak_nodes: usize,
}

impl ChaosCell {
    /// The rows of one grid point: one per policy, in spec order, from the
    /// published [`PolicyCell`](crate::experiments::PolicyCell) figures
    /// plus the peak fleet size of the live capacity report.
    fn rows(point: &SweepPoint) -> Result<Vec<Self>, String> {
        let report = served_report(point)?;
        point
            .policies
            .iter()
            .zip(&report.policies)
            .map(|(cell, policy)| {
                let capacity = policy.serving.capacity.as_ref().ok_or_else(|| {
                    format!(
                        "point {} / policy `{}`: no capacity report",
                        point.index, cell.name
                    )
                })?;
                Ok(ChaosCell {
                    autoscaler: capacity.autoscaler.clone(),
                    admission: capacity.admission.clone(),
                    policy: cell.name.clone(),
                    slo_attainment: cell.slo_attainment,
                    served: cell.served,
                    shed: cell.shed,
                    failed: cell.failed,
                    retried: cell.retried,
                    nodes_lost: cell.nodes_lost,
                    node_seconds: cell.node_seconds.unwrap_or_default(),
                    peak_nodes: capacity.peak_nodes,
                })
            })
            .collect()
    }
}

/// The outcome of a chaos-resilience run: a view over the sweep with one
/// row per (autoscaler, admission, policy), in grid order.
#[derive(Debug, Clone)]
pub struct ChaosResilienceResult {
    /// The sweep behind the view: one paired session per (autoscaler,
    /// admission) point.
    pub sweep: SweepResult,
    /// Grid rows, autoscaler-major, then admission, then policy.
    pub cells: Vec<ChaosCell>,
}

impl ChaosResilienceResult {
    /// View a completed chaos grid, one row per point and policy.
    fn from_sweep(sweep: SweepResult) -> Result<Self, String> {
        let mut cells = Vec::with_capacity(sweep.points.len() * sweep.spec.policies.len());
        for point in &sweep.points {
            cells.extend(ChaosCell::rows(point)?);
        }
        let result = ChaosResilienceResult { sweep, cells };
        result.validate()?;
        Ok(result)
    }

    /// Rows ranked most-graceful first: highest SLO attainment over what was
    /// served, fewest failed requests breaking ties.
    fn ranked(&self) -> Vec<&ChaosCell> {
        let mut rows: Vec<&ChaosCell> = self.cells.iter().collect();
        rows.sort_by(|a, b| {
            b.slo_attainment
                .total_cmp(&a.slo_attainment)
                .then(a.failed.cmp(&b.failed))
        });
        rows
    }

    /// Invariants on top of the sweep's and each session's own validation:
    /// the fault killed nodes in every row, and every row billed real
    /// capacity.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for cell in &self.cells {
            let label = format!(
                "cell ({}, {}, {})",
                cell.autoscaler, cell.admission, cell.policy
            );
            if cell.nodes_lost == 0 {
                return Err(format!("{label}: the fault killed no nodes"));
            }
            if !(cell.node_seconds.is_finite() && cell.node_seconds > 0.0) {
                return Err(format!(
                    "{label}: non-positive node-seconds {}",
                    cell.node_seconds
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ChaosResilienceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.sweep.spec;
        let cluster = spec.cluster.clone().unwrap_or_default();
        writeln!(
            f,
            "# Chaos resilience: {} under `{}` during `{}`, {} requests/cell @ {} rps on \
             {}x{}mc in {} zones",
            spec.app.short_name(),
            spec.faults.as_deref().unwrap_or_default().join(", "),
            spec.scenarios[0],
            spec.requests,
            spec.loads_rps[0],
            cluster.nodes,
            cluster.node_capacity.get(),
            cluster.zones,
        )?;
        writeln!(
            f,
            "{:>12} {:>11} {:>12} {:>9} {:>7} {:>7} {:>7} {:>8} {:>6} {:>12}",
            "autoscaler",
            "admission",
            "policy",
            "attain %",
            "served",
            "shed",
            "failed",
            "retried",
            "lost",
            "node-sec"
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "{:>12} {:>11} {:>12} {:>8.1}% {:>7} {:>7} {:>7} {:>8} {:>6} {:>12.1}",
                cell.autoscaler,
                cell.admission,
                cell.policy,
                cell.slo_attainment * 100.0,
                cell.served,
                cell.shed,
                cell.failed,
                cell.retried,
                cell.nodes_lost,
                cell.node_seconds,
            )?;
        }
        if let Some(best) = self.ranked().first() {
            writeln!(
                f,
                "most graceful: {} x {} under {} ({:.1}% attainment, {} failed)",
                best.autoscaler,
                best.admission,
                best.policy,
                best.slo_attainment * 100.0,
                best.failed,
            )?;
        }
        Ok(())
    }
}

/// Run a chaos-resilience spec through [`run_sweep`] and view the result.
/// With an `observers` axis the fault deliveries show up as typed records in
/// each point's flight report.
pub(crate) fn chaos_resilience(spec: &SweepSpec) -> Result<ChaosResilienceResult, String> {
    ChaosResilienceResult::from_sweep(run_sweep(spec)?)
}

use crate::experiments::api::{ExperimentCtx, ExperimentOutput};

/// The `chaos_resilience` experiment: the IA flash-crowd zone-outage grid
/// at the configured scale.
pub(crate) fn run_chaos_resilience(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let mut spec = ctx.sweep_spec(PaperApp::IntelligentAssistant, paper_spec, quick_spec);
    spec.observers = ctx.observer_name().map(|name| vec![name.to_string()]);
    let result = chaos_resilience(&spec)?;
    // Both policies of one point share its qualifier.
    ctx.append_sweep_traces(&result.sweep, |s| {
        [&s.autoscaler, &s.admission]
            .map(|axis| axis.as_deref().unwrap_or_default())
            .join("/")
    })?;
    Ok(ExperimentOutput::single(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ToJson;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            requests: 60,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..quick_spec(PaperApp::IntelligentAssistant)
        }
    }

    #[test]
    fn the_grid_survives_a_zone_outage_and_accounts_for_every_request() {
        let result = chaos_resilience(&tiny_spec()).unwrap();
        result.validate().unwrap();
        assert_eq!(
            result.cells.len(),
            8,
            "2 autoscalers x 2 admissions x 2 policies"
        );
        for cell in &result.cells {
            assert_eq!(
                cell.served + cell.shed + cell.failed,
                result.sweep.spec.requests as u64
            );
            if cell.autoscaler == "static" {
                // With a fixed fleet the 4 nodes stay 2 per zone, so the
                // outage kills exactly the dying zone's pair; elastic cells
                // may have reshaped the zone by outage time.
                assert_eq!(cell.nodes_lost, 2, "static cells lose exactly one zone");
            }
        }
        // The ranking orders by attainment; the display names the winner.
        let ranked = result.ranked();
        assert!(ranked
            .windows(2)
            .all(|w| w[0].slo_attainment >= w[1].slo_attainment));
        let shown = format!("{result}");
        assert!(shown.contains("most graceful:"), "{shown}");
        assert!(shown.contains("zone-outage"), "{shown}");
        // Machine view carries the full accounting per row.
        let doc = janus_json::parse(&result.to_json().to_pretty()).unwrap();
        assert_eq!(
            doc.require("experiment").unwrap().as_str(),
            Some("chaos_resilience")
        );
        assert_eq!(doc.require("cells").unwrap().as_array().unwrap().len(), 8);
    }

    #[test]
    fn traced_chaos_runs_carry_the_fault_deliveries() {
        use crate::experiments::api::{Scale, TraceSink};
        use janus_observe::TraceReport;

        let sink = TraceSink::new();
        let ctx = ExperimentCtx::new(Scale::Quick)
            .with_seed(Some(7))
            .with_trace(sink.clone());
        assert_eq!(ctx.observer_name(), Some("flight-recorder"));
        run_chaos_resilience(&ctx).unwrap();
        let trace = sink.take();
        assert!(
            trace.contains("\"type\":\"fault\"") && trace.contains("zone-outage"),
            "fault deliveries must appear in the trace"
        );
        let report = TraceReport::from_jsonl(&trace).unwrap();
        // 2 policies x 4 (autoscaler, admission) cells, each qualified.
        assert_eq!(report.policies.len(), 8);
        assert!(report
            .policies
            .iter()
            .any(|p| p.policy == "GrandSLAM@static/admit-all"));
    }

    #[test]
    fn chaos_grids_are_deterministic_and_reject_bad_configs() {
        let spec = SweepSpec {
            autoscalers: Some(vec!["utilization".into()]),
            admissions: Some(vec!["admit-all".into()]),
            policies: vec!["GrandSLAM".into()],
            ..tiny_spec()
        };
        let a = chaos_resilience(&spec).unwrap();
        let b = chaos_resilience(&spec).unwrap();
        let serving = |r: &ChaosResilienceResult| {
            r.sweep.points[0]
                .live_report()
                .unwrap()
                .serving("GrandSLAM")
                .unwrap()
                .clone()
        };
        assert_eq!(serving(&a), serving(&b));
        let err = chaos_resilience(&SweepSpec {
            policies: vec![],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("`policies`: axis must not be empty"), "{err}");
        let err = chaos_resilience(&SweepSpec {
            faults: Some(vec!["meteor-strike".into()]),
            ..spec
        })
        .unwrap_err();
        assert!(err.contains("unknown fault injector"), "{err}");
    }
}
