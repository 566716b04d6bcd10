//! Scenario sweep: every policy under every load shape.
//!
//! The paper evaluates its policies under a single load shape; the sweep
//! generalizes that into a (scenario × policy) grid. The grid is a
//! [`SweepSpec`] with one scenario axis, served by [`run_sweep`]: each point
//! is one [`ServingSession`](crate::session::ServingSession) in which all
//! policies replay the *same* request set under the same arrival process
//! (paired comparison), and the session checks its structural invariants
//! before returning. [`ScenarioSweepResult`] is a view over the returned
//! [`SweepResult`]: it reads the published [`PolicyCell`] figures and, for
//! the pooled latency tail, each point's live report.
//!
//! Because every built-in scenario is normalized to the sweep's base rate
//! (see `janus-scenarios`), differences across a row isolate the effect of
//! load *shape* — burstiness, spikes, trace dynamics — from offered load.

use crate::experiments::spec::SweepSpec;
use crate::experiments::sweep::{run_sweep, PolicyCell, SweepPoint, SweepResult};
use crate::session::SessionReport;
use janus_scenarios::ScenarioRegistry;
use janus_simcore::stats::StreamingSummary;
use janus_workloads::apps::PaperApp;
use std::fmt;

/// The paper-scale sweep: the five built-in scenarios × four representative
/// policies at a load that produces real queueing.
pub(crate) fn paper_spec(app: PaperApp) -> SweepSpec {
    SweepSpec {
        name: "scenarios".into(),
        app,
        concurrency: 1,
        policies: vec![
            "ORION".into(),
            "GrandSLAM".into(),
            "Janus".into(),
            "Janus+".into(),
        ],
        scenarios: ScenarioRegistry::with_builtins()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        loads_rps: vec![1.0],
        seeds: vec![7],
        autoscalers: None,
        admissions: None,
        faults: None,
        observers: None,
        cluster: None,
        tenants: None,
        requests: 500,
        samples_per_point: 1000,
        budget_step_ms: 1.0,
    }
}

/// Reduced scale for smoke runs and CI (`--quick`): same grid, fewer
/// requests and profile samples.
pub(crate) fn quick_spec(app: PaperApp) -> SweepSpec {
    SweepSpec {
        requests: 120,
        samples_per_point: 300,
        budget_step_ms: 5.0,
        ..paper_spec(app)
    }
}

/// The live report of a grid point, once every policy has accounted for
/// all of the point's requests. Cache replays carry no report, so the grid
/// experiments, which read per-request state, reject them.
pub(crate) fn served_report(point: &SweepPoint) -> Result<&SessionReport, String> {
    let report = point
        .live_report()
        .ok_or_else(|| format!("point {}: no live session report", point.index))?;
    for policy in &report.policies {
        if policy.serving.len() != point.session.requests {
            return Err(format!(
                "point {} / policy `{}`: served {} of {} requests",
                point.index,
                policy.name,
                policy.serving.len(),
                point.session.requests
            ));
        }
    }
    Ok(report)
}

/// The outcome of a scenario sweep: a view over a sweep with one point per
/// scenario, in spec order.
#[derive(Debug, Clone)]
pub struct ScenarioSweepResult {
    /// The sweep behind the view.
    pub sweep: SweepResult,
}

impl ScenarioSweepResult {
    /// View a completed sweep, checking that every point ran live and
    /// served all its requests.
    fn from_sweep(sweep: SweepResult) -> Result<Self, String> {
        let result = ScenarioSweepResult { sweep };
        result.validate()?;
        Ok(result)
    }

    fn point(&self, scenario: &str) -> Option<&SweepPoint> {
        self.sweep
            .points
            .iter()
            .find(|p| p.session.scenario.as_deref() == Some(scenario))
    }

    fn policy_cell(&self, scenario: &str, policy: &str) -> Option<&PolicyCell> {
        self.point(scenario)?
            .policies
            .iter()
            .find(|c| c.name == policy)
    }

    /// The session of one scenario.
    pub fn cell(&self, scenario: &str) -> Option<&SessionReport> {
        self.point(scenario)?.live_report()
    }

    /// SLO attainment of one (scenario, policy) grid cell, in `[0, 1]`.
    pub fn attainment(&self, scenario: &str, policy: &str) -> Option<f64> {
        Some(self.policy_cell(scenario, policy)?.slo_attainment)
    }

    /// Pooled end-to-end latency statistics of one policy across **every**
    /// scenario of the sweep, folded through [`StreamingSummary::merge`] —
    /// the whole-sweep tail without re-buffering or re-sorting the combined
    /// per-request sample set. `None` if the policy ran in no cell.
    fn pooled_e2e_streaming(&self, policy: &str) -> Option<StreamingSummary> {
        let mut pooled = StreamingSummary::new();
        for point in &self.sweep.points {
            if let Some(serving) = point.live_report().and_then(|r| r.serving(policy)) {
                pooled.merge(&serving.e2e_streaming());
            }
        }
        (!pooled.is_empty()).then_some(pooled)
    }

    /// Invariants on top of the sweep's own validation (grid complete, in
    /// order, every point serving the spec's policies): every point ran live
    /// and served the configured number of requests under every policy.
    pub fn validate(&self) -> Result<(), String> {
        for point in &self.sweep.points {
            served_report(point)?;
        }
        Ok(())
    }

    /// One scenario × policy table of a published figure.
    fn table(
        &self,
        f: &mut fmt::Formatter<'_>,
        heading: &str,
        figure: fn(&PolicyCell) -> String,
    ) -> fmt::Result {
        writeln!(f, "{heading}")?;
        write!(f, "{:>14}", "scenario")?;
        for policy in &self.sweep.spec.policies {
            write!(f, " {policy:>12}")?;
        }
        writeln!(f)?;
        for point in &self.sweep.points {
            write!(
                f,
                "{:>14}",
                point.session.scenario.as_deref().unwrap_or("-")
            )?;
            for policy in &self.sweep.spec.policies {
                match point.policies.iter().find(|c| &c.name == policy) {
                    Some(cell) => write!(f, "{}", figure(cell))?,
                    None => write!(f, " {:>12}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for ScenarioSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.sweep.spec;
        writeln!(
            f,
            "# Scenario sweep: {} @ concurrency {} ({} requests per cell, base {} rps)",
            spec.app.short_name(),
            spec.concurrency,
            spec.requests,
            spec.loads_rps[0]
        )?;
        self.table(f, "## SLO attainment (%)", |c| {
            format!(" {:>11.1}%", c.slo_attainment * 100.0)
        })?;
        self.table(f, "## Mean CPU per request (millicores)", |c| {
            format!(" {:>12.1}", c.mean_cpu_millicores)
        })?;
        writeln!(
            f,
            "## Pooled E2E latency across all scenarios (ms, streaming)"
        )?;
        writeln!(
            f,
            "{:>14} {:>9} {:>10} {:>10} {:>10}",
            "policy", "samples", "mean", "~P50", "~P99"
        )?;
        for policy in &spec.policies {
            match self.pooled_e2e_streaming(policy).and_then(|s| s.summary()) {
                Some(s) => writeln!(
                    f,
                    "{:>14} {:>9} {:>10.1} {:>10.1} {:>10.1}",
                    policy, s.count, s.mean, s.p50, s.p99
                )?,
                None => writeln!(f, "{policy:>14} {:>9}", "-")?,
            }
        }
        Ok(())
    }
}

/// Run a scenario-sweep spec through [`run_sweep`] and view the result.
/// Custom scenarios stay reachable per session through
/// [`ServingSessionBuilder::register_scenario_fn`](crate::session::ServingSessionBuilder::register_scenario_fn).
pub(crate) fn scenario_sweep(spec: &SweepSpec) -> Result<ScenarioSweepResult, String> {
    ScenarioSweepResult::from_sweep(run_sweep(spec)?)
}

use crate::experiments::api::{ExperimentCtx, ExperimentOutput};

/// The `scenarios` experiment: the IA scenario × policy sweep at the
/// configured scale.
pub(crate) fn run_scenarios(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let spec = ctx.sweep_spec(PaperApp::IntelligentAssistant, paper_spec, quick_spec);
    Ok(ExperimentOutput::single(scenario_sweep(&spec)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            scenarios: vec!["poisson".into(), "flash-crowd".into(), "bursty".into()],
            policies: vec!["GrandSLAM".into(), "Janus".into()],
            loads_rps: vec![2.0],
            requests: 40,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..quick_spec(PaperApp::IntelligentAssistant)
        }
    }

    #[test]
    fn sweep_covers_the_grid_with_paired_invariant_checked_cells() {
        let result = scenario_sweep(&tiny_spec()).unwrap();
        assert_eq!(result.sweep.points.len(), 3);
        result.validate().unwrap();
        for scenario in ["poisson", "flash-crowd", "bursty"] {
            for policy in ["GrandSLAM", "Janus"] {
                let attainment = result.attainment(scenario, policy).unwrap();
                assert!((0.0..=1.0).contains(&attainment), "{scenario}/{policy}");
                let cell = result.policy_cell(scenario, policy).unwrap();
                assert!(cell.mean_cpu_millicores > 0.0);
            }
            assert_eq!(
                result.cell(scenario).unwrap().scenario.as_deref(),
                Some(scenario)
            );
        }
        // Shape matters: at least one scenario serves differently from the
        // constant-rate baseline.
        let p = result.cell("poisson").unwrap().serving("Janus").unwrap();
        let b = result.cell("bursty").unwrap().serving("Janus").unwrap();
        assert_ne!(p, b);
        let shown = format!("{result}");
        assert!(shown.contains("SLO attainment"));
        assert!(shown.contains("Pooled E2E latency"));
        // The pooled streaming view folds every cell of the row without
        // re-buffering: 3 scenarios × 40 requests, mean equal to the exact
        // pooled mean.
        let pooled = result.pooled_e2e_streaming("Janus").unwrap();
        assert_eq!(pooled.count(), 3 * 40);
        let exact_mean: f64 = result
            .sweep
            .points
            .iter()
            .map(|p| p.live_report().unwrap().serving("Janus").unwrap())
            .map(|serving| serving.e2e_summary().unwrap())
            .map(|s| s.mean * s.count as f64)
            .sum::<f64>()
            / pooled.count() as f64;
        assert!((pooled.mean() - exact_mean).abs() < 1e-9);
        assert!(result.pooled_e2e_streaming("ORION").is_none());
    }

    #[test]
    fn sweep_is_deterministic_and_rejects_bad_grids() {
        let spec = SweepSpec {
            scenarios: vec!["diurnal".into()],
            policies: vec!["GrandSLAM".into()],
            requests: 25,
            ..tiny_spec()
        };
        let a = scenario_sweep(&spec).unwrap();
        let b = scenario_sweep(&spec).unwrap();
        assert_eq!(
            a.cell("diurnal").unwrap().serving("GrandSLAM"),
            b.cell("diurnal").unwrap().serving("GrandSLAM")
        );
        let err = scenario_sweep(&SweepSpec {
            scenarios: vec![],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("`scenarios`: axis must not be empty"), "{err}");
        let err = scenario_sweep(&SweepSpec {
            scenarios: vec!["tsunami".into()],
            ..spec
        })
        .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
