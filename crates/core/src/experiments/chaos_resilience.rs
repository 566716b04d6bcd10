//! Chaos resilience: which capacity regime degrades most gracefully when a
//! zone dies mid flash-crowd.
//!
//! The capacity sweep asks what elasticity buys under load *shape*; this
//! experiment asks what it buys under *failure*. Every cell of the
//! (autoscaler × admission) grid serves the same flash-crowd request set on
//! a multi-zone spread fleet while the configured fault injector (default
//! `zone-outage`) kills a whole zone partway through the spike — the worst
//! correlated failure the topology admits. Both sizing policies run paired
//! inside each cell, so the grid separates three effects that a single run
//! confounds: what the sizing policy contributes, what the autoscaler
//! recovers, and what admission control protects.
//!
//! Each row reports the graceful-degradation quantities: SLO attainment over
//! what was served, shed and failed counts, fault-triggered retries,
//! node-seconds billed and nodes lost. Conservation
//! (`admitted + shed == generated`, `admitted == served + failed`) is
//! validated in every cell, and the whole grid is bit-reproducible in the
//! seed — the fault schedule is part of the replayed experiment, not
//! ambient randomness.

use crate::experiments::perf::{rate_per_sec, MIN_WALL_MS};
use crate::experiments::ToJson;
use crate::session::{Load, ServingSession, SessionReport};
use janus_json::Value;
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::parallel;
use janus_simcore::resources::Millicores;
use janus_workloads::apps::PaperApp;
use std::fmt;
use std::time::Instant;

/// Configuration of one chaos-resilience grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosResilienceConfig {
    /// Application under test.
    pub app: PaperApp,
    /// Batch size (concurrency) requests are served at.
    pub concurrency: u32,
    /// Sizing policies served paired in every cell.
    pub policies: Vec<String>,
    /// Fault injector every cell runs under.
    pub fault: String,
    /// Arrival scenario every cell runs under.
    pub scenario: String,
    /// Autoscaler names to sweep.
    pub autoscalers: Vec<String>,
    /// Admission-policy names to sweep.
    pub admissions: Vec<String>,
    /// Starting fleet: multi-zone spread nodes, so a zone outage is a
    /// correlated loss the survivors can (or cannot) absorb.
    pub cluster: ClusterConfig,
    /// Requests generated per cell per policy.
    pub requests: usize,
    /// Long-run mean arrival rate.
    pub rps: f64,
    /// Request / profiling / fault seed.
    pub seed: u64,
    /// Profiler samples per grid point.
    pub samples_per_point: usize,
    /// Synthesizer budget step in milliseconds.
    pub budget_step_ms: f64,
}

impl ChaosResilienceConfig {
    /// The default fleet: four spread 8-core nodes across two zones, so the
    /// outage halves capacity in one event.
    pub fn two_zone_fleet() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 2,
        }
    }

    /// Paper-scale grid: {static, utilization} × {admit-all, queue-shed}
    /// under a flash crowd with a mid-run zone outage.
    pub fn paper_default(app: PaperApp) -> Self {
        ChaosResilienceConfig {
            app,
            concurrency: 1,
            policies: vec!["GrandSLAM".into(), "Janus".into()],
            fault: "zone-outage".into(),
            scenario: "flash-crowd".into(),
            autoscalers: vec!["static".into(), "utilization".into()],
            admissions: vec!["admit-all".into(), "queue-shed".into()],
            cluster: Self::two_zone_fleet(),
            requests: 300,
            rps: 6.0,
            seed: 7,
            samples_per_point: 1000,
            budget_step_ms: 1.0,
        }
    }

    /// Reduced scale for smoke runs and CI (`--quick`).
    pub fn quick(app: PaperApp) -> Self {
        ChaosResilienceConfig {
            requests: 90,
            samples_per_point: 300,
            budget_step_ms: 5.0,
            ..Self::paper_default(app)
        }
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
    pub served: usize,
    /// Requests shed at arrival.
    pub shed: usize,
    /// Admitted requests lost to the fault (retry budget exhausted).
    pub failed: usize,
    /// Fault-interrupted requests that re-enqueued and started over.
    pub retried: usize,
    /// Nodes force-killed by the fault.
    pub nodes_lost: usize,
    /// Node-seconds billed (the capacity bill of surviving the fault).
    pub node_seconds: f64,
    /// Peak non-retired node count.
    pub peak_nodes: usize,
}

/// The outcome of a chaos-resilience run: one row per (autoscaler,
/// admission, policy), in configuration order, plus the full session
/// reports behind them.
#[derive(Debug, Clone)]
pub struct ChaosResilienceResult {
    /// Configuration the grid ran with.
    pub config: ChaosResilienceConfig,
    /// Grid rows, autoscaler-major, then admission, then policy.
    pub cells: Vec<ChaosCell>,
    /// One session report per (autoscaler, admission) cell, in grid order.
    pub reports: Vec<SessionReport>,
    /// Wall-clock time of the whole grid, in ms (clamped to stay positive).
    pub wall_ms: f64,
    /// Cells processed per wall-clock second.
    pub cells_per_sec: f64,
}

impl ChaosResilienceResult {
    /// The row of one (autoscaler, admission, policy) triple.
    pub fn cell(&self, autoscaler: &str, admission: &str, policy: &str) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.autoscaler == autoscaler && c.admission == admission && c.policy == policy)
    }

    /// Rows ranked most-graceful first: highest SLO attainment over what was
    /// served, fewest failed requests breaking ties.
    pub fn ranked(&self) -> Vec<&ChaosCell> {
        let mut rows: Vec<&ChaosCell> = self.cells.iter().collect();
        rows.sort_by(|a, b| {
            b.slo_attainment
                .total_cmp(&a.slo_attainment)
                .then(a.failed.cmp(&b.failed))
        });
        rows
    }

    /// Cross-cell invariants on top of each session's own validation.
    pub fn validate(&self) -> Result<(), String> {
        let expected = self.config.autoscalers.len()
            * self.config.admissions.len()
            * self.config.policies.len();
        if self.cells.len() != expected {
            return Err(format!(
                "chaos grid produced {} rows for a {expected}-row grid",
                self.cells.len()
            ));
        }
        for cell in &self.cells {
            let label = format!(
                "cell ({}, {}, {})",
                cell.autoscaler, cell.admission, cell.policy
            );
            if cell.served + cell.shed + cell.failed != self.config.requests {
                return Err(format!(
                    "{label}: served {} + shed {} + failed {} != generated {}",
                    cell.served, cell.shed, cell.failed, self.config.requests
                ));
            }
            if !(0.0..=1.0).contains(&cell.slo_attainment) {
                return Err(format!(
                    "{label}: SLO attainment {} outside [0, 1]",
                    cell.slo_attainment
                ));
            }
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
        writeln!(
            f,
            "# Chaos resilience: {} under `{}` during `{}`, {} requests/cell @ {} rps on \
             {}x{}mc in {} zones",
            self.config.app.short_name(),
            self.config.fault,
            self.config.scenario,
            self.config.requests,
            self.config.rps,
            self.config.cluster.nodes,
            self.config.cluster.node_capacity.get(),
            self.config.cluster.zones,
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

impl ToJson for ChaosResilienceResult {
    fn to_json(&self) -> Value {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("autoscaler".to_string(), Value::Str(c.autoscaler.clone())),
                    ("admission".to_string(), Value::Str(c.admission.clone())),
                    ("policy".to_string(), Value::Str(c.policy.clone())),
                    ("slo_attainment".to_string(), Value::Num(c.slo_attainment)),
                    ("served".to_string(), Value::Num(c.served as f64)),
                    ("shed".to_string(), Value::Num(c.shed as f64)),
                    ("failed".to_string(), Value::Num(c.failed as f64)),
                    ("retried".to_string(), Value::Num(c.retried as f64)),
                    ("nodes_lost".to_string(), Value::Num(c.nodes_lost as f64)),
                    ("node_seconds".to_string(), Value::Num(c.node_seconds)),
                    ("peak_nodes".to_string(), Value::Num(c.peak_nodes as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "experiment".to_string(),
                Value::Str("chaos_resilience".to_string()),
            ),
            (
                "app".to_string(),
                Value::Str(self.config.app.short_name().into()),
            ),
            ("fault".to_string(), Value::Str(self.config.fault.clone())),
            (
                "scenario".to_string(),
                Value::Str(self.config.scenario.clone()),
            ),
            ("seed".to_string(), Value::Num(self.config.seed as f64)),
            (
                "requests".to_string(),
                Value::Num(self.config.requests as f64),
            ),
            ("cells".to_string(), Value::Arr(cells)),
            ("wall_ms".to_string(), Value::Num(self.wall_ms)),
            ("cells_per_sec".to_string(), Value::Num(self.cells_per_sec)),
        ])
    }
}

/// Run the chaos-resilience grid: one paired multi-policy session per
/// (autoscaler, admission) cell, every cell under the same fault schedule,
/// fanned out across threads. Deterministic in the seed.
pub fn chaos_resilience(config: &ChaosResilienceConfig) -> Result<ChaosResilienceResult, String> {
    chaos_resilience_observed(config, None)
}

/// [`chaos_resilience`] with an observer attached to every cell's session
/// (`janus run chaos_resilience --trace`): the fault deliveries then show up
/// as typed records in each cell's flight report.
pub fn chaos_resilience_observed(
    config: &ChaosResilienceConfig,
    observer: Option<&str>,
) -> Result<ChaosResilienceResult, String> {
    if config.policies.is_empty() {
        return Err("chaos resilience needs at least one policy".into());
    }
    if config.autoscalers.is_empty() || config.admissions.is_empty() {
        return Err(
            "chaos resilience needs at least one autoscaler and one admission policy".into(),
        );
    }
    // janus-lint: allow(nondeterminism) — wall-clock cost of the grid, reported as metadata; grid results are seed-pure
    let started = Instant::now();
    let mut grid = Vec::new();
    for autoscaler in &config.autoscalers {
        for admission in &config.admissions {
            grid.push((autoscaler.clone(), admission.clone()));
        }
    }
    let reports: Vec<Result<SessionReport, String>> =
        parallel::map(grid, |(autoscaler, admission)| {
            let mut builder = ServingSession::builder()
                .app(config.app)
                .concurrency(config.concurrency)
                .policies(config.policies.clone())
                .load(Load::Open {
                    requests: config.requests,
                    rps: config.rps,
                })
                .cluster(config.cluster.clone())
                .scenario(&config.scenario)
                .autoscaler(&autoscaler)
                .admission(&admission)
                .fault(&config.fault)
                .seed(config.seed)
                .samples_per_point(config.samples_per_point)
                .budget_step_ms(config.budget_step_ms);
            if let Some(observer) = observer {
                builder = builder.observe(observer);
            }
            builder
                .run()
                .map_err(|e| format!("cell ({autoscaler}, {admission}): {e}"))
        });
    let reports = reports.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut cells = Vec::with_capacity(reports.len() * config.policies.len());
    for report in &reports {
        for policy in &config.policies {
            let serving = report
                .serving(policy)
                .ok_or_else(|| format!("policy `{policy}` missing from its own session"))?;
            let capacity = serving
                .capacity
                .as_ref()
                .ok_or_else(|| format!("policy `{policy}`: no capacity report"))?;
            cells.push(ChaosCell {
                autoscaler: capacity.autoscaler.clone(),
                admission: capacity.admission.clone(),
                policy: policy.clone(),
                slo_attainment: 1.0 - serving.slo_violation_rate(),
                served: serving.served_len(),
                shed: capacity.shed,
                failed: capacity.failed,
                retried: capacity.retried,
                nodes_lost: capacity.nodes_lost,
                node_seconds: capacity.node_seconds,
                peak_nodes: capacity.peak_nodes,
            });
        }
    }
    let wall_ms = (started.elapsed().as_secs_f64() * 1000.0).max(MIN_WALL_MS);
    let result = ChaosResilienceResult {
        config: config.clone(),
        cells_per_sec: rate_per_sec(cells.len() as u64, wall_ms),
        cells,
        reports,
        wall_ms,
    };
    result.validate()?;
    Ok(result)
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput, Scale};

/// `chaos_resilience` as a registered [`Experiment`]: the IA flash-crowd
/// zone-outage grid at the configured scale.
pub struct ChaosResilienceExperiment;

impl Experiment for ChaosResilienceExperiment {
    fn name(&self) -> &str {
        "chaos_resilience"
    }

    fn describe(&self) -> &str {
        "Chaos resilience: capacity regimes under a mid-flash-crowd zone outage"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        let mut config = match ctx.scale {
            Scale::Paper => ChaosResilienceConfig::paper_default(PaperApp::IntelligentAssistant),
            Scale::Quick => ChaosResilienceConfig::quick(PaperApp::IntelligentAssistant),
        };
        config.seed = ctx.seed_or(config.seed);
        let result = chaos_resilience_observed(&config, ctx.observer_name())?;
        // Reports come back in grid order (autoscaler-major, then
        // admission); both policies of one cell share its qualifier.
        let mut reports = result.reports.iter();
        for autoscaler in &config.autoscalers {
            for admission in &config.admissions {
                let Some(report) = reports.next() else { break };
                if let Some(trace) = report.trace() {
                    ctx.append_trace(&trace, Some(&format!("{autoscaler}/{admission}")))?;
                }
            }
        }
        Ok(ExperimentOutput::single(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ChaosResilienceConfig {
        ChaosResilienceConfig {
            requests: 60,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..ChaosResilienceConfig::quick(PaperApp::IntelligentAssistant)
        }
    }

    #[test]
    fn the_grid_survives_a_zone_outage_and_accounts_for_every_request() {
        let result = chaos_resilience(&tiny_config()).unwrap();
        result.validate().unwrap();
        assert_eq!(
            result.cells.len(),
            8,
            "2 autoscalers x 2 admissions x 2 policies"
        );
        for cell in &result.cells {
            assert_eq!(
                cell.served + cell.shed + cell.failed,
                result.config.requests
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
        use crate::experiments::api::TraceSink;
        use janus_observe::TraceReport;

        let sink = TraceSink::new();
        let ctx = ExperimentCtx::new(Scale::Quick)
            .with_seed(Some(7))
            .with_observer(Some("trace".into()))
            .with_trace(sink.clone());
        assert_eq!(ctx.observer_name(), Some("trace"));
        ChaosResilienceExperiment.run(&ctx).unwrap();
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
        let config = ChaosResilienceConfig {
            autoscalers: vec!["utilization".into()],
            admissions: vec!["admit-all".into()],
            policies: vec!["GrandSLAM".into()],
            ..tiny_config()
        };
        let a = chaos_resilience(&config).unwrap();
        let b = chaos_resilience(&config).unwrap();
        assert_eq!(
            a.reports[0].serving("GrandSLAM").unwrap(),
            b.reports[0].serving("GrandSLAM").unwrap()
        );
        let err = chaos_resilience(&ChaosResilienceConfig {
            policies: vec![],
            ..config.clone()
        })
        .unwrap_err();
        assert!(err.contains("at least one policy"), "{err}");
        let err = chaos_resilience(&ChaosResilienceConfig {
            fault: "meteor-strike".into(),
            ..config
        })
        .unwrap_err();
        assert!(err.contains("unknown fault injector"), "{err}");
    }
}
