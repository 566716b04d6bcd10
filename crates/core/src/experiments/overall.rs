//! Overall performance experiments: Table I, Figure 4 and Figure 5 (§V-B).

use crate::experiments::api::ExperimentCtx;
use crate::session::SessionReport;
use janus_workloads::apps::PaperApp;
use std::fmt;

/// The seven policies of Table I and Figure 5, in the paper's column order.
pub const TABLE1_POLICIES: &[&str] = &[
    "Optimal",
    "ORION",
    "GrandSLAM+",
    "GrandSLAM",
    "Janus-",
    "Janus",
    "Janus+",
];

/// Result shared by Table I, Figure 4 and Figure 5: a full policy comparison
/// for one (application, concurrency) pair.
#[derive(Debug, Clone)]
pub struct OverallResult {
    /// The session that served every policy on one request set.
    pub report: SessionReport,
}

impl OverallResult {
    /// Serve [`TABLE1_POLICIES`] on one request set: `app` at `concurrency`,
    /// at the context's scale and seed.
    pub(crate) fn run(
        ctx: &ExperimentCtx,
        app: PaperApp,
        concurrency: u32,
    ) -> Result<Self, String> {
        let report = ctx
            .session(app, concurrency)
            .policies(TABLE1_POLICIES.iter().copied())
            .run()?;
        Ok(OverallResult { report })
    }

    /// Application short name ("IA" / "VA"): the paper workflows' names.
    pub(crate) fn app_name(&self) -> &str {
        &self.report.workflow
    }

    /// Table I row: reduction (%) of Janus vs each baseline, normalised by
    /// Optimal, in the paper's column order.
    pub(crate) fn table1_row(&self) -> Vec<(String, f64)> {
        ["ORION", "GrandSLAM+", "GrandSLAM", "Janus-", "Janus+"]
            .into_iter()
            .filter_map(|other| {
                self.report
                    .reduction_percent("Janus", other)
                    .map(|r| (other.to_string(), r))
            })
            .collect()
    }

    /// Figure 5 row: mean CPU (millicores) per policy.
    fn fig5_row(&self) -> Vec<(String, f64)> {
        self.report
            .policies
            .iter()
            .map(|p| (p.name.clone(), p.serving.mean_cpu_millicores()))
            .collect()
    }

    /// Figure 4 series: `(policy, E2E latency CDF points)`.
    fn fig4_series(&self, points: usize) -> Vec<(String, Vec<(f64, f64)>)> {
        self.report
            .policies
            .iter()
            .map(|p| (p.name.clone(), p.serving.e2e_cdf().points(points)))
            .collect()
    }
}

impl fmt::Display for OverallResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let report = &self.report;
        writeln!(
            f,
            "# {} @ concurrency {} (SLO {:.1} s, {} requests)",
            self.app_name(),
            report.concurrency,
            report.slo.as_secs(),
            report.load.requests()
        )?;
        writeln!(f, "## Figure 5: mean CPU per request (millicores)")?;
        for (name, cpu) in self.fig5_row() {
            let norm = cpu / report.mean_cpu_millicores("Optimal").unwrap_or(cpu);
            writeln!(f, "{name:>12} {cpu:>10.1}  (x{norm:.3} of Optimal)")?;
        }
        writeln!(
            f,
            "## Table I: Janus resource reduction vs baselines (% of Optimal)"
        )?;
        for (name, reduction) in self.table1_row() {
            writeln!(f, "{name:>12} {reduction:>8.1}%")?;
        }
        writeln!(f, "## SLO compliance")?;
        for p in &report.policies {
            writeln!(
                f,
                "{:>12} P99 E2E {:>8.2} s, violations {:>6.2}%",
                p.name,
                p.serving
                    .e2e_percentile(99.0)
                    .map(|d| d.as_secs())
                    .unwrap_or(0.0),
                p.serving.slo_violation_rate() * 100.0
            )?;
        }
        Ok(())
    }
}

use crate::experiments::api::ExperimentOutput;
use crate::experiments::ToJson;
use janus_json::Value;

/// The `table1` experiment: the overall comparison for both paper
/// applications at concurrency 1.
pub(crate) fn run_table1(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let mut out = ExperimentOutput::new();
    for app in PaperApp::ALL {
        let result =
            OverallResult::run(ctx, app, 1).map_err(|e| format!("{}: {e}", app.short_name()))?;
        out.push(app.short_name(), result);
    }
    Ok(out)
}

/// The Figure 4 presentation of an [`OverallResult`]: one latency-CDF series
/// per policy, instead of the Table I rows. JSON view delegates to the
/// underlying result (same document the retired `fig4` binary wrote).
pub struct Fig4Cdf(pub OverallResult);

impl fmt::Display for Fig4Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let report = &self.0.report;
        writeln!(
            f,
            "# Figure 4: {} concurrency {} (SLO {:.1} s) E2E latency CDF",
            self.0.app_name(),
            report.concurrency,
            report.slo.as_secs()
        )?;
        for (policy, points) in self.0.fig4_series(11) {
            write!(f, "{policy:>12}:")?;
            for (latency_ms, q) in points {
                write!(f, " ({:.2}s,{q:.1})", latency_ms / 1000.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl ToJson for Fig4Cdf {
    fn to_json(&self) -> Value {
        self.0.to_json()
    }
}

/// The `fig4` experiment: IA at concurrency 1–3 plus VA.
pub(crate) fn run_fig4(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let setups = [
        (PaperApp::IntelligentAssistant, 1u32),
        (PaperApp::IntelligentAssistant, 2),
        (PaperApp::IntelligentAssistant, 3),
        (PaperApp::VideoAnalyze, 1),
    ];
    let mut out = ExperimentOutput::new();
    for (app, conc) in setups {
        let result = OverallResult::run(ctx, app, conc)
            .map_err(|e| format!("{} conc {conc}: {e}", app.short_name()))?;
        out.push(
            format!("{} concurrency {conc}", app.short_name()),
            Fig4Cdf(result),
        );
    }
    Ok(out)
}

/// The Figure 5 presentation of an [`OverallResult`]: per-policy CPU, either
/// absolute millicores (5a) or normalised by Optimal (5b).
pub struct Fig5Consumption {
    /// The underlying comparison.
    pub result: OverallResult,
    /// Normalise by the Optimal oracle (the Figure 5b presentation).
    pub normalized: bool,
}

impl fmt::Display for Fig5Consumption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.normalized {
            let report = &self.result.report;
            for p in &report.policies {
                let norm = report
                    .normalized_cpu(&p.name, "Optimal")
                    .unwrap_or(f64::NAN);
                writeln!(
                    f,
                    "{:>12} {:>8.3}  ({:.1} mc)",
                    p.name,
                    norm,
                    p.serving.mean_cpu_millicores()
                )?;
            }
        } else {
            for (policy, cpu) in self.result.fig5_row() {
                writeln!(f, "{policy:>12} {cpu:>10.1}")?;
            }
        }
        Ok(())
    }
}

impl ToJson for Fig5Consumption {
    fn to_json(&self) -> Value {
        self.result.to_json()
    }
}

/// The `fig5` experiment: absolute CPU for IA and VA at concurrency 1,
/// normalised CPU for IA at concurrency 2 and 3.
pub(crate) fn run_fig5(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let mut out = ExperimentOutput::new();
    for app in PaperApp::ALL {
        let result =
            OverallResult::run(ctx, app, 1).map_err(|e| format!("{}: {e}", app.short_name()))?;
        out.push(
            format!(
                "{} absolute CPU (millicores), concurrency 1",
                app.short_name()
            ),
            Fig5Consumption {
                result,
                normalized: false,
            },
        );
    }
    for conc in [2u32, 3] {
        let result = OverallResult::run(ctx, PaperApp::IntelligentAssistant, conc)
            .map_err(|e| format!("IA conc {conc}: {e}"))?;
        let slo_s = result.report.slo.as_secs();
        out.push(
            format!("IA normalised CPU, concurrency {conc} (SLO {slo_s:.1} s)"),
            Fig5Consumption {
                result,
                normalized: true,
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Load, ServingSession};

    #[test]
    fn overall_result_exposes_table1_and_fig5_views() {
        let report = ServingSession::builder()
            .app(PaperApp::IntelligentAssistant)
            .policies([
                "Optimal",
                "ORION",
                "GrandSLAM",
                "GrandSLAM+",
                "Janus-",
                "Janus",
            ])
            .load(Load::Closed { requests: 150 })
            .samples_per_point(250)
            .budget_step_ms(10.0)
            .run()
            .unwrap();
        let result = OverallResult { report };
        assert_eq!(result.app_name(), "IA");

        let row = result.table1_row();
        assert_eq!(row.len(), 4, "Janus+ not in the run");
        // Janus improves on every early-binding baseline.
        for (name, reduction) in &row {
            if name != "Janus-" {
                assert!(*reduction > 0.0, "{name} reduction {reduction}");
            } else {
                assert!(*reduction >= -1.0, "Janus- close to Janus: {reduction}");
            }
        }
        let fig5 = result.fig5_row();
        assert_eq!(fig5.len(), 6);
        let fig4 = result.fig4_series(11);
        assert_eq!(fig4.len(), 6);
        assert_eq!(fig4[0].1.len(), 11);
        let janus = ["Janus-", "Janus", "Janus+"].map(|name| result.report.serving(name));
        for serving in janus.into_iter().flatten() {
            assert!(serving.slo_violation_rate() <= 0.03, "{}", serving.policy);
        }
        assert!(format!("{result}").contains("Table I"));
    }
}
