//! Motivation experiments: Figures 1a, 1b, 1c and 2 (§II).

use janus_baselines::early::grandslam;
use janus_baselines::oracle::OptimalOracle;
use janus_platform::executor::{ClosedLoopExecutor, ExecutorConfig};
use janus_profiler::percentiles::Percentile;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_simcore::interference::InterferenceModel;
use janus_simcore::resources::{CoreGrid, Millicores};
use janus_simcore::time::SimDuration;
use janus_synthesizer::synthesizer::ExplorationDepth;
use janus_trace::slack::SlackAnalysis;
use janus_trace::synth::{Trace, TraceConfig};
use janus_workloads::apps::{intelligent_assistant, PaperApp};
use janus_workloads::microbench;
use janus_workloads::request::RequestInputGenerator;
use std::fmt;

use crate::registry::{JanusFactory, SynthesisSettings};

/// Figure 1a: slack CDFs of function invocations under P99 SLOs.
#[derive(Debug, Clone)]
pub struct Fig1aResult {
    /// `(slack, cumulative fraction)` points for all invocations.
    pub all: Vec<(f64, f64)>,
    /// `(slack, cumulative fraction)` points for the top-100 functions.
    pub popular: Vec<(f64, f64)>,
    /// Fraction of invocations contributed by the top-100 functions.
    pub popular_fraction: f64,
    /// Fraction of all invocations with slack above 0.6 (paper: > 60 %).
    pub frac_all_above_60: f64,
    /// Fraction of popular invocations with slack below 0.4 (paper: ≈ 20 %).
    pub frac_popular_below_40: f64,
}

/// Run the Figure 1a analysis on a synthetic Azure-like trace. Fails if
/// the trace configuration is invalid (for example zero invocations).
pub(crate) fn fig1a_slack_cdf(invocations: usize, seed: u64) -> Result<Fig1aResult, String> {
    let trace = Trace::generate(&TraceConfig {
        invocations,
        seed,
        ..TraceConfig::default()
    })?;
    let analysis = SlackAnalysis::from_trace(&trace);
    let cdfs = analysis.cdfs(&trace, 100);
    Ok(Fig1aResult {
        all: cdfs.all.points(21),
        popular: cdfs.popular.points(21),
        popular_fraction: cdfs.popular_fraction,
        frac_all_above_60: 1.0 - cdfs.all.fraction_below(0.6),
        frac_popular_below_40: cdfs.popular.fraction_below(0.4),
    })
}

impl fmt::Display for Fig1aResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Figure 1a: slack CDF under P99 SLOs")?;
        writeln!(
            f,
            "# top-100 functions account for {:.1}% of invocations",
            self.popular_fraction * 100.0
        )?;
        writeln!(f, "{:>8} {:>10} {:>10}", "slack", "CDF(all)", "CDF(pop)")?;
        for i in 0..self.all.len() {
            writeln!(
                f,
                "{:>8.2} {:>10.3} {:>10.3}",
                self.all[i].0, self.all[i].1, self.popular[i].1
            )?;
        }
        writeln!(
            f,
            "invocations with slack > 0.6 (all): {:.1}%",
            self.frac_all_above_60 * 100.0
        )?;
        writeln!(
            f,
            "popular invocations with slack < 0.4: {:.1}%",
            self.frac_popular_below_40 * 100.0
        )
    }
}

/// Figure 1b: per-function latency variance caused by varying working sets.
#[derive(Debug, Clone)]
pub struct Fig1bResult {
    /// Rows `(function, P1 latency s, P99 latency s, ratio)`.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Profile OD / QA / TS at a fixed 2000 mc allocation and report P1 vs P99.
/// Fails if the profiler configuration is invalid (for example zero
/// samples).
fn fig1b_workset_variance(samples: usize, seed: u64) -> Result<Fig1bResult, String> {
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: samples,
        seed,
        interference: InterferenceModel::none(),
        ..ProfilerConfig::default()
    })?;
    let rows = intelligent_assistant()
        .functions()
        .iter()
        .map(|func| {
            let profile = profiler.profile_function(func, 1);
            let p1 = profile
                .latency(Percentile::P1, Millicores::new(2000))
                .as_secs();
            let p99 = profile
                .latency(Percentile::P99, Millicores::new(2000))
                .as_secs();
            (func.name().to_uppercase(), p1, p99, p99 / p1)
        })
        .collect();
    Ok(Fig1bResult { rows })
}

impl fmt::Display for Fig1bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Figure 1b: latency variance from varying working sets (2000 mc)"
        )?;
        writeln!(
            f,
            "{:>6} {:>10} {:>10} {:>8}",
            "func", "P1 (s)", "P99 (s)", "ratio"
        )?;
        for (name, p1, p99, ratio) in &self.rows {
            writeln!(f, "{name:>6} {p1:>10.3} {p99:>10.3} {ratio:>8.2}")?;
        }
        Ok(())
    }
}

/// Figure 1c: interference from co-locating homogeneous functions.
#[derive(Debug, Clone)]
pub struct Fig1cResult {
    /// Rows `(dominant dimension, normalized latency at 1..=6 co-located)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Measure the normalised latency of the four microbenchmark functions as the
/// co-location degree grows from 1 to 6 instances.
pub fn fig1c_interference() -> Fig1cResult {
    let interference = InterferenceModel::paper_calibrated();
    let rows = microbench::all()
        .iter()
        .map(|func| {
            let alone = func
                .execution_time(Millicores::new(1000), 1, 1.0, 1, &interference)
                .as_millis();
            let series = (1..=6)
                .map(|n| {
                    func.execution_time(Millicores::new(1000), 1, 1.0, n, &interference)
                        .as_millis()
                        / alone
                })
                .collect();
            (func.dominant().to_string(), series)
        })
        .collect();
    Fig1cResult { rows }
}

impl fmt::Display for Fig1cResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Figure 1c: normalized latency vs co-located instances (1..6)"
        )?;
        writeln!(
            f,
            "{:>8} {}",
            "dim",
            (1..=6).map(|n| format!("{n:>7}")).collect::<String>()
        )?;
        for (dim, series) in &self.rows {
            write!(f, "{dim:>8} ")?;
            for v in series {
                write!(f, "{v:>7.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Figure 2: per-request E2E latency and CPU (normalised by Optimal) under
/// early binding vs late binding.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// SLO used (seconds).
    pub slo_s: f64,
    /// Rows `(request id, early E2E s, late E2E s, early CPU/optimal, late CPU/optimal)`.
    pub rows: Vec<(u64, f64, f64, f64, f64)>,
    /// Mean CPU reduction of late binding vs early binding (fraction).
    pub mean_cpu_reduction: f64,
}

/// Compare early binding (GrandSLAM-style, P99-sized) against late binding
/// (Janus) on a small request sample, normalising CPU by the Optimal oracle.
/// Fails if a policy cannot be built from the profile.
fn fig2_binding_comparison(requests: usize, seed: u64) -> Result<Fig2Result, String> {
    let app = PaperApp::IntelligentAssistant;
    let workflow = app.workflow();
    let slo = app.default_slo(1);
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: 600,
        seed,
        ..ProfilerConfig::default()
    })?;
    let profile = profiler.profile_workflow(&workflow, 1);
    let reqs = RequestInputGenerator::new(seed, SimDuration::ZERO).generate(&workflow, requests);
    let exec_config = ExecutorConfig::paper_serving(slo, 1);
    let executor = ClosedLoopExecutor::new(workflow.clone(), exec_config.clone());

    let mut early = grandslam(&profile, slo)?;
    let early_report = executor.run(&mut early, &reqs);

    let (mut late, _) = JanusFactory::new(ExplorationDepth::HeadOnly)
        .synthesize(&profile, SynthesisSettings::default())?;
    let late_report = executor.run(&mut late, &reqs);

    let mut oracle = OptimalOracle::new(
        &workflow,
        &reqs,
        slo,
        1,
        CoreGrid::paper_default(),
        &exec_config.interference,
    );
    let optimal_report = executor.run(&mut oracle, &reqs);

    let rows: Vec<(u64, f64, f64, f64, f64)> = (0..reqs.len())
        .map(|i| {
            let opt_cpu = f64::from(optimal_report.outcomes[i].total_cpu().get()).max(1.0);
            (
                reqs[i].id,
                early_report.outcomes[i].e2e.as_secs(),
                late_report.outcomes[i].e2e.as_secs(),
                f64::from(early_report.outcomes[i].total_cpu().get()) / opt_cpu,
                f64::from(late_report.outcomes[i].total_cpu().get()) / opt_cpu,
            )
        })
        .collect();
    let mean_cpu_reduction =
        1.0 - late_report.mean_cpu_millicores() / early_report.mean_cpu_millicores();
    Ok(Fig2Result {
        slo_s: slo.as_secs(),
        rows,
        mean_cpu_reduction,
    })
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Figure 2: early-binding vs late-binding (SLO {:.1} s)",
            self.slo_s
        )?;
        writeln!(
            f,
            "{:>5} {:>10} {:>10} {:>12} {:>12}",
            "req", "E2E early", "E2E late", "CPU early/x", "CPU late/x"
        )?;
        for (id, e_early, e_late, c_early, c_late) in &self.rows {
            writeln!(
                f,
                "{id:>5} {e_early:>10.2} {e_late:>10.2} {c_early:>12.2} {c_late:>12.2}"
            )?;
        }
        writeln!(
            f,
            "mean CPU reduction of late binding vs early binding: {:.1}%",
            self.mean_cpu_reduction * 100.0
        )
    }
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};

/// `fig1a` as a registered [`Experiment`].
pub struct Fig1aExperiment;

impl Experiment for Fig1aExperiment {
    fn name(&self) -> &str {
        "fig1a"
    }

    fn describe(&self) -> &str {
        "Figure 1a: slack CDF of function invocations in an Azure-like trace"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(fig1a_slack_cdf(
            ctx.trace_invocations(),
            ctx.seed_or(0xA2C5E),
        )?))
    }
}

/// `fig1b` as a registered [`Experiment`].
pub struct Fig1bExperiment;

impl Experiment for Fig1bExperiment {
    fn name(&self) -> &str {
        "fig1b"
    }

    fn describe(&self) -> &str {
        "Figure 1b: function latency variance caused by varying working sets"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(fig1b_workset_variance(
            ctx.profile_samples(),
            ctx.seed_or(0xF1B),
        )?))
    }
}

/// `fig1c` as a registered [`Experiment`].
pub struct Fig1cExperiment;

impl Experiment for Fig1cExperiment {
    fn name(&self) -> &str {
        "fig1c"
    }

    fn describe(&self) -> &str {
        "Figure 1c: performance interference from co-locating homogeneous functions"
    }

    fn run(&self, _ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(fig1c_interference()))
    }
}

/// `fig2` as a registered [`Experiment`].
pub struct Fig2Experiment;

impl Experiment for Fig2Experiment {
    fn name(&self) -> &str {
        "fig2"
    }

    fn describe(&self) -> &str {
        "Figure 2: per-request early-binding vs late-binding comparison"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(fig2_binding_comparison(
            ctx.scale.fig2_requests(),
            ctx.seed_or(0xF2),
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_reproduces_the_slack_claims() {
        let r = fig1a_slack_cdf(20_000, 3).unwrap();
        assert!(r.frac_all_above_60 > 0.6);
        assert!(r.frac_popular_below_40 < 0.35);
        assert!(r.popular_fraction > 0.6);
        assert_eq!(r.all.len(), 21);
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn fig1b_shows_multi_x_variance_for_ia_functions() {
        let r = fig1b_workset_variance(400, 5).unwrap();
        assert_eq!(r.rows.len(), 3);
        for (name, p1, p99, ratio) in &r.rows {
            assert!(p99 > p1, "{name} p99 {p99} > p1 {p1}");
            assert!(*ratio > 1.8 && *ratio < 6.5, "{name} ratio {ratio}");
        }
        assert!(format!("{r}").contains("OD"));
    }

    #[test]
    fn fig1c_ordering_matches_the_paper() {
        let r = fig1c_interference();
        assert_eq!(r.rows.len(), 4);
        for (_, series) in &r.rows {
            assert_eq!(series.len(), 6);
            assert!((series[0] - 1.0).abs() < 1e-9);
            assert!(series.windows(2).all(|w| w[1] >= w[0]));
        }
        let net = r.rows.iter().find(|(d, _)| d == "Network").unwrap().1[5];
        assert!(net > 7.0 && net < 9.5, "network slowdown {net}");
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn fig2_late_binding_reduces_cpu_within_slo() {
        let r = fig2_binding_comparison(40, 11).unwrap();
        assert_eq!(r.rows.len(), 40);
        assert!(
            r.mean_cpu_reduction > 0.1,
            "reduction {}",
            r.mean_cpu_reduction
        );
        // Late binding trades time for resources but must stay within the SLO
        // for the overwhelming majority of requests.
        let violations = r
            .rows
            .iter()
            .filter(|(_, _, late, _, _)| *late > r.slo_s)
            .count();
        assert!(violations <= 1, "late binding violations {violations}");
        assert!(!format!("{r}").is_empty());
    }
}
