//! Scenario sweep: every policy under every load shape, in parallel.
//!
//! The paper evaluates its policies under a single load shape; the sweep
//! generalizes that into a (scenario × policy) grid. Each grid column is one
//! [`ServingSession`] — all policies of a column replay the *same* request
//! set under the same arrival process (paired comparison), and the session
//! checks its structural invariants before returning. Columns are
//! independent, so they fan out across threads; results come back in
//! configuration order regardless of scheduling.
//!
//! Because every built-in scenario is normalized to the sweep's base rate
//! (see `janus-scenarios`), differences across a row isolate the effect of
//! load *shape* — burstiness, spikes, trace dynamics — from offered load.

use crate::session::{Load, ServingSession, SessionReport};
use janus_scenarios::ScenarioRegistry;
use janus_simcore::parallel;
use janus_simcore::stats::StreamingSummary;
use janus_workloads::apps::PaperApp;
use std::fmt;

/// Configuration of one scenario sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweepConfig {
    /// Application under test.
    pub app: PaperApp,
    /// Batch size (concurrency) requests are served at.
    pub concurrency: u32,
    /// Scenario names to sweep (resolved from the scenario registry).
    pub scenarios: Vec<String>,
    /// Policy names to serve under each scenario (resolved from the policy
    /// registry).
    pub policies: Vec<String>,
    /// Requests generated per (scenario, policy) cell.
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

impl ScenarioSweepConfig {
    /// Paper-scale sweep: the five built-in scenarios × four representative
    /// policies at a load that produces real queueing.
    pub fn paper_default(app: PaperApp) -> Self {
        ScenarioSweepConfig {
            app,
            concurrency: 1,
            scenarios: ScenarioRegistry::with_builtins()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            policies: vec![
                "ORION".into(),
                "GrandSLAM".into(),
                "Janus".into(),
                "Janus+".into(),
            ],
            requests: 500,
            rps: 1.0,
            seed: 7,
            samples_per_point: 1000,
            budget_step_ms: 1.0,
        }
    }

    /// Reduced scale for smoke runs and CI (`--quick`): same grid, fewer
    /// requests and profile samples.
    pub fn quick(app: PaperApp) -> Self {
        ScenarioSweepConfig {
            requests: 120,
            samples_per_point: 300,
            budget_step_ms: 5.0,
            ..Self::paper_default(app)
        }
    }
}

/// One column of the sweep grid: every configured policy served under one
/// scenario, paired on an identical request set.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Scenario name the column ran under.
    pub scenario: String,
    /// The session report (one `PolicyReport` per policy, invariant-checked).
    pub report: SessionReport,
}

/// The outcome of a scenario sweep: one invariant-checked session per
/// scenario, in configuration order.
#[derive(Debug, Clone)]
pub struct ScenarioSweepResult {
    /// Configuration the sweep ran with.
    pub config: ScenarioSweepConfig,
    /// Per-scenario sessions, in `config.scenarios` order.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioSweepResult {
    /// The session of one scenario.
    pub fn cell(&self, scenario: &str) -> Option<&SessionReport> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario)
            .map(|c| &c.report)
    }

    /// SLO attainment of one (scenario, policy) grid cell, in `[0, 1]`.
    pub fn attainment(&self, scenario: &str, policy: &str) -> Option<f64> {
        self.cell(scenario)?.slo_attainment(policy)
    }

    /// Mean per-request CPU (millicores) of one (scenario, policy) cell.
    pub fn mean_cpu(&self, scenario: &str, policy: &str) -> Option<f64> {
        self.cell(scenario)?.mean_cpu_millicores(policy)
    }

    /// Pooled end-to-end latency statistics of one policy across **every**
    /// scenario of the sweep, folded through [`StreamingSummary::merge`] —
    /// the whole-sweep tail without re-buffering or re-sorting the combined
    /// per-request sample set. `None` if the policy ran in no cell.
    pub fn pooled_e2e_streaming(&self, policy: &str) -> Option<StreamingSummary> {
        let mut pooled = StreamingSummary::new();
        for cell in &self.cells {
            // Cells missing the policy (possible in hand-assembled partial
            // sweeps) are skipped rather than zeroing out the whole pool.
            if let Some(serving) = cell.report.serving(policy) {
                pooled.merge(&serving.e2e_streaming());
            }
        }
        (!pooled.is_empty()).then_some(pooled)
    }

    /// Cross-cell invariants on top of each session's own validation: the
    /// grid is complete (every scenario ran every policy, in order) and each
    /// cell served the configured number of requests.
    pub fn validate(&self) -> Result<(), String> {
        if self.cells.len() != self.config.scenarios.len() {
            return Err(format!(
                "sweep produced {} cells for {} scenarios",
                self.cells.len(),
                self.config.scenarios.len()
            ));
        }
        for (cell, expected) in self.cells.iter().zip(&self.config.scenarios) {
            if &cell.scenario != expected {
                return Err(format!(
                    "cell order broken: got `{}`, expected `{expected}`",
                    cell.scenario
                ));
            }
            let names: Vec<&str> = cell.report.names();
            if names
                != self
                    .config
                    .policies
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
            {
                return Err(format!(
                    "scenario `{}` ran policies {names:?}, expected {:?}",
                    cell.scenario, self.config.policies
                ));
            }
            for policy in &cell.report.policies {
                if policy.serving.len() != self.config.requests {
                    return Err(format!(
                        "scenario `{}` / policy `{}`: served {} of {} requests",
                        cell.scenario,
                        policy.name,
                        policy.serving.len(),
                        self.config.requests
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ScenarioSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Scenario sweep: {} @ concurrency {} ({} requests per cell, base {} rps)",
            self.config.app.short_name(),
            self.config.concurrency,
            self.config.requests,
            self.config.rps
        )?;
        writeln!(f, "## SLO attainment (%)")?;
        write!(f, "{:>14}", "scenario")?;
        for policy in &self.config.policies {
            write!(f, " {policy:>12}")?;
        }
        writeln!(f)?;
        for cell in &self.cells {
            write!(f, "{:>14}", cell.scenario)?;
            for policy in &self.config.policies {
                match cell.report.slo_attainment(policy) {
                    Some(a) => write!(f, " {:>11.1}%", a * 100.0)?,
                    None => write!(f, " {:>12}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(f, "## Mean CPU per request (millicores)")?;
        write!(f, "{:>14}", "scenario")?;
        for policy in &self.config.policies {
            write!(f, " {policy:>12}")?;
        }
        writeln!(f)?;
        for cell in &self.cells {
            write!(f, "{:>14}", cell.scenario)?;
            for policy in &self.config.policies {
                match cell.report.mean_cpu_millicores(policy) {
                    Some(cpu) => write!(f, " {cpu:>12.1}")?,
                    None => write!(f, " {:>12}", "-")?,
                }
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "## Pooled E2E latency across all scenarios (ms, streaming)"
        )?;
        writeln!(
            f,
            "{:>14} {:>9} {:>10} {:>10} {:>10}",
            "policy", "samples", "mean", "~P50", "~P99"
        )?;
        for policy in &self.config.policies {
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

/// Run the sweep against the built-in scenario registry.
pub fn scenario_sweep(config: &ScenarioSweepConfig) -> Result<ScenarioSweepResult, String> {
    scenario_sweep_with(&ScenarioRegistry::with_builtins(), config)
}

/// Run the sweep against a custom scenario registry (for sweeps over
/// downstream-registered arrival processes).
pub fn scenario_sweep_with(
    registry: &ScenarioRegistry,
    config: &ScenarioSweepConfig,
) -> Result<ScenarioSweepResult, String> {
    if config.scenarios.is_empty() {
        return Err("sweep needs at least one scenario".into());
    }
    // One session per scenario, fanned out across threads. Sessions are
    // seed-deterministic, so the parallel sweep is reproducible and its
    // result order follows configuration order (the parallel map is
    // order-preserving).
    let cells: Vec<Result<ScenarioCell, String>> =
        parallel::map(config.scenarios.clone(), |scenario| {
            let report = ServingSession::builder()
                .app(config.app)
                .concurrency(config.concurrency)
                .policies(config.policies.clone())
                .load(Load::Open {
                    requests: config.requests,
                    rps: config.rps,
                })
                .scenario_registry(registry.clone())
                .scenario(&scenario)
                .seed(config.seed)
                .samples_per_point(config.samples_per_point)
                .budget_step_ms(config.budget_step_ms)
                .run()
                .map_err(|e| format!("scenario `{scenario}`: {e}"))?;
            Ok(ScenarioCell { scenario, report })
        });
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
    let result = ScenarioSweepResult {
        config: config.clone(),
        cells,
    };
    result.validate()?;
    Ok(result)
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};

/// `scenarios` as a registered [`Experiment`]: the IA scenario × policy
/// sweep at the configured scale.
pub struct ScenarioSweepExperiment;

impl Experiment for ScenarioSweepExperiment {
    fn name(&self) -> &str {
        "scenarios"
    }

    fn describe(&self) -> &str {
        "Scenario sweep: every policy under every built-in load shape"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(scenario_sweep(
            &ctx.scenario_sweep(PaperApp::IntelligentAssistant),
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid_with_paired_invariant_checked_cells() {
        let config = ScenarioSweepConfig {
            scenarios: vec!["poisson".into(), "flash-crowd".into(), "bursty".into()],
            policies: vec!["GrandSLAM".into(), "Janus".into()],
            requests: 40,
            rps: 2.0,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..ScenarioSweepConfig::quick(PaperApp::IntelligentAssistant)
        };
        let result = scenario_sweep(&config).unwrap();
        assert_eq!(result.cells.len(), 3);
        result.validate().unwrap();
        for scenario in ["poisson", "flash-crowd", "bursty"] {
            for policy in ["GrandSLAM", "Janus"] {
                let attainment = result.attainment(scenario, policy).unwrap();
                assert!((0.0..=1.0).contains(&attainment), "{scenario}/{policy}");
                assert!(result.mean_cpu(scenario, policy).unwrap() > 0.0);
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
            .cells
            .iter()
            .map(|c| c.report.serving("Janus").unwrap().e2e_summary().unwrap())
            .map(|s| s.mean * s.count as f64)
            .sum::<f64>()
            / pooled.count() as f64;
        assert!((pooled.mean() - exact_mean).abs() < 1e-9);
        assert!(result.pooled_e2e_streaming("ORION").is_none());
    }

    #[test]
    fn sweep_is_deterministic_and_rejects_bad_grids() {
        let config = ScenarioSweepConfig {
            scenarios: vec!["diurnal".into()],
            policies: vec!["GrandSLAM".into()],
            requests: 25,
            rps: 2.0,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..ScenarioSweepConfig::quick(PaperApp::IntelligentAssistant)
        };
        let a = scenario_sweep(&config).unwrap();
        let b = scenario_sweep(&config).unwrap();
        assert_eq!(
            a.cell("diurnal").unwrap().serving("GrandSLAM"),
            b.cell("diurnal").unwrap().serving("GrandSLAM")
        );
        let err = scenario_sweep(&ScenarioSweepConfig {
            scenarios: vec![],
            ..config.clone()
        })
        .unwrap_err();
        assert!(err.contains("at least one scenario"), "{err}");
        let err = scenario_sweep(&ScenarioSweepConfig {
            scenarios: vec!["tsunami".into()],
            ..config
        })
        .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
