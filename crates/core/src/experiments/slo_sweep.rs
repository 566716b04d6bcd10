//! Figure 9: resource consumption (normalised by Optimal) across SLOs (§V-G).

use crate::session::ServingSessionBuilder;
use janus_simcore::time::SimDuration;
use janus_workloads::apps::PaperApp;
use std::fmt;

/// Figure 9 data for one application: normalised CPU per policy per SLO.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Application short name.
    pub app: String,
    /// SLOs evaluated (seconds).
    pub slos_s: Vec<f64>,
    /// `(policy, normalised CPU per SLO)` series.
    pub series: Vec<(String, Vec<f64>)>,
}

/// The policies Figure 9 serves, in run order: the Optimal normaliser first.
pub const SLO_SWEEP_POLICIES: &[&str] = &["Optimal", "ORION", "GrandSLAM", "Janus"];

/// Run the SLO sweep for one application: IA over 3–7 s, VA over 1.5–2.0 s in
/// the paper; the SLO list is a parameter so tests can use fewer points.
/// `base` supplies the scale and seed; the sweep sets the application, each
/// SLO and [`SLO_SWEEP_POLICIES`], so `base` must name no policy itself.
fn fig9_slo_sweep(
    app: PaperApp,
    slos_s: &[f64],
    base: &ServingSessionBuilder,
) -> Result<Fig9Result, String> {
    let series_names = &SLO_SWEEP_POLICIES[1..];
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); series_names.len()];
    for &slo in slos_s {
        let report = base
            .clone()
            .app(app)
            .slo(SimDuration::from_secs(slo))
            .policies(SLO_SWEEP_POLICIES.iter().copied())
            .run()?;
        for (series, name) in per_policy.iter_mut().zip(series_names) {
            series.push(report.normalized_cpu(name, "Optimal").unwrap_or(f64::NAN));
        }
    }
    Ok(Fig9Result {
        app: app.short_name().to_string(),
        slos_s: slos_s.to_vec(),
        series: series_names
            .iter()
            .zip(per_policy)
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
    })
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Figure 9: {} CPU normalised by Optimal vs SLO",
            self.app
        )?;
        write!(f, "{:>12}", "SLO (s)")?;
        for slo in &self.slos_s {
            write!(f, "{slo:>8.1}")?;
        }
        writeln!(f)?;
        for (name, series) in &self.series {
            write!(f, "{name:>12}")?;
            for v in series {
                write!(f, "{v:>8.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput, Scale};

/// The SLO grids of the paper's Figure 9 at each scale.
fn fig9_slos(app: PaperApp, scale: Scale) -> &'static [f64] {
    match (app, scale) {
        (PaperApp::IntelligentAssistant, Scale::Paper) => &[3.0, 4.0, 5.0, 6.0, 7.0],
        (PaperApp::IntelligentAssistant, Scale::Quick) => &[3.0, 5.0, 7.0],
        (PaperApp::VideoAnalyze, Scale::Paper) => &[1.5, 1.6, 1.7, 1.8, 1.9, 2.0],
        (PaperApp::VideoAnalyze, Scale::Quick) => &[1.5, 1.75, 2.0],
    }
}

/// `fig9` as a registered [`Experiment`]: the IA and VA sweeps.
pub struct Fig9Experiment;

impl Experiment for Fig9Experiment {
    fn name(&self) -> &str {
        "fig9"
    }

    fn describe(&self) -> &str {
        "Figure 9: resource consumption (normalised by Optimal) under varying SLOs"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        let mut out = ExperimentOutput::new();
        for app in PaperApp::ALL {
            let result = fig9_slo_sweep(app, fig9_slos(app, ctx.scale), &ctx.session(app, 1))
                .map_err(|e| format!("{}: {e}", app.short_name()))?;
            out.push(app.short_name(), result);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Load, ServingSession};

    #[test]
    fn janus_beats_the_early_binders_across_slos() {
        // 120 requests is noise-dominated (ORION can "beat" the oracle on a
        // lucky draw); 300 keeps the run fast while the ordering is stable.
        let base = ServingSession::builder()
            .load(Load::Closed { requests: 300 })
            .samples_per_point(300)
            .budget_step_ms(2.0);
        let result = fig9_slo_sweep(PaperApp::IntelligentAssistant, &[3.0, 3.5], &base).unwrap();
        assert_eq!(result.slos_s, vec![3.0, 3.5]);
        assert_eq!(result.series.len(), 3);
        // Late binding pays off most where the SLO is tight: at the 3 s point
        // Janus must beat ORION outright. At looser SLOs every sizing policy
        // converges towards Kmin, so only require Janus to stay competitive
        // there (the paper-scale sweep, 1000 requests, shows a positive mean
        // advantage throughout).
        let series = |name: &str| {
            &result
                .series
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
                .1
        };
        assert!(
            series("Janus")[0] < series("ORION")[0],
            "tight-SLO advantage"
        );
        // Mean advantage, in normalised-CPU points, of Janus over a baseline.
        let advantage = |baseline: &str| {
            let janus = series("Janus");
            let diffs = janus.iter().zip(series(baseline)).map(|(j, b)| b - j);
            diffs.sum::<f64>() / janus.len() as f64
        };
        assert!(advantage("ORION") > -0.05);
        assert!(advantage("GrandSLAM") > 0.0);
        // Every normalised value is >= 1 (nothing beats the oracle).
        for (_, series) in &result.series {
            assert!(series.iter().all(|&v| v >= 0.99), "series {series:?}");
        }
        assert!(!format!("{result}").is_empty());
    }
}
