//! Synthesizer-centric experiments: Figures 6 and 8, Table II and the system
//! overhead report (§V-C, §V-E, §V-F, §V-H).

use crate::registry::{JanusFactory, SynthesisSettings};
use crate::session::ServingSessionBuilder;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_simcore::time::SimDuration;
use janus_synthesizer::synthesizer::{ExplorationDepth, Synthesizer, SynthesizerConfig};
use janus_workloads::apps::PaperApp;
use std::fmt;
use std::time::Instant;

/// Figure 6: resource consumption and synthesis time of Janus vs Janus⁺
/// across SLOs.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// SLOs evaluated (seconds).
    pub slos_s: Vec<f64>,
    /// Mean per-request CPU (millicores) of Janus per SLO.
    pub janus_cpu: Vec<f64>,
    /// Mean per-request CPU (millicores) of Janus⁺ per SLO.
    pub janus_plus_cpu: Vec<f64>,
    /// Hint-synthesis wall-clock time (seconds) of Janus per SLO.
    pub janus_time_s: Vec<f64>,
    /// Hint-synthesis wall-clock time (seconds) of Janus⁺ per SLO.
    pub janus_plus_time_s: Vec<f64>,
}

impl Fig6Result {
    /// Mean relative CPU saving of Janus⁺ over Janus (paper: ≈ 0.6 %).
    fn mean_plus_saving(&self) -> f64 {
        let diffs: Vec<f64> = self
            .janus_cpu
            .iter()
            .zip(&self.janus_plus_cpu)
            .map(|(j, p)| (j - p) / j)
            .collect();
        diffs.iter().sum::<f64>() / diffs.len().max(1) as f64
    }

    /// Mean synthesis-time blow-up of Janus⁺ over Janus (paper: up to ~107×).
    fn mean_time_blowup(&self) -> f64 {
        let ratios: Vec<f64> = self
            .janus_time_s
            .iter()
            .zip(&self.janus_plus_time_s)
            .map(|(j, p)| p / j.max(1e-9))
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }
}

/// Run Figure 6: serve under Janus and Janus⁺ at each SLO and record the
/// synthesis time of each hints bundle. `base` supplies the application,
/// scale and seed; the run sets each SLO and the two policies, so `base`
/// must name no policy itself.
fn fig6_exploration_cost(
    slos_s: &[f64],
    base: &ServingSessionBuilder,
) -> Result<Fig6Result, String> {
    let mut result = Fig6Result {
        slos_s: slos_s.to_vec(),
        janus_cpu: Vec::new(),
        janus_plus_cpu: Vec::new(),
        janus_time_s: Vec::new(),
        janus_plus_time_s: Vec::new(),
    };
    for &slo in slos_s {
        let report = base
            .clone()
            .slo(SimDuration::from_secs(slo))
            .policies(["Janus", "Janus+"])
            .run()?;
        for (name, cpu, time_s) in [
            ("Janus", &mut result.janus_cpu, &mut result.janus_time_s),
            (
                "Janus+",
                &mut result.janus_plus_cpu,
                &mut result.janus_plus_time_s,
            ),
        ] {
            let policy = report
                .report(name)
                .ok_or_else(|| format!("SLO {slo} s: policy `{name}` missing from its session"))?;
            let synthesis = policy
                .synthesis
                .as_ref()
                .ok_or_else(|| format!("SLO {slo} s: policy `{name}` reported no synthesis"))?;
            cpu.push(policy.serving.mean_cpu_millicores());
            time_s.push(synthesis.synthesis_time_ms / 1000.0);
        }
    }
    Ok(result)
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Figure 6: Janus vs Janus+ across SLOs (IA)")?;
        writeln!(
            f,
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            "SLO (s)", "Janus mc", "Janus+ mc", "Janus t(s)", "Janus+ t(s)"
        )?;
        for i in 0..self.slos_s.len() {
            writeln!(
                f,
                "{:>8.1} {:>12.1} {:>12.1} {:>12.3} {:>12.3}",
                self.slos_s[i],
                self.janus_cpu[i],
                self.janus_plus_cpu[i],
                self.janus_time_s[i],
                self.janus_plus_time_s[i]
            )?;
        }
        writeln!(
            f,
            "mean Janus+ CPU saving: {:.2}%",
            self.mean_plus_saving() * 100.0
        )?;
        writeln!(
            f,
            "mean Janus+ synthesis-time blow-up: {:.1}x",
            self.mean_time_blowup()
        )
    }
}

/// Figure 8: number of condensed hints per weight.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Weights evaluated.
    pub weights: Vec<f64>,
    /// `(series label, hint count per weight, compression ratio per weight)`.
    pub series: Vec<(String, Vec<usize>, Vec<f64>)>,
}

/// Run Figure 8: condensed-hint counts for IA (concurrency 1–3, budget ranges
/// 2–7 s / 3–7 s / 4–10 s) and VA (1.5–2 s), for weights 1–3.
fn fig8_hint_counts(
    weights: &[f64],
    samples_per_point: usize,
    seed: u64,
) -> Result<Fig8Result, String> {
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point,
        seed,
        ..ProfilerConfig::default()
    })?;
    // (label, app, concurrency, explicit full-workflow budget range in ms).
    let setups: [(&str, PaperApp, u32, (f64, f64)); 4] = [
        (
            "IA conc=1",
            PaperApp::IntelligentAssistant,
            1,
            (2000.0, 7000.0),
        ),
        (
            "IA conc=2",
            PaperApp::IntelligentAssistant,
            2,
            (3000.0, 7000.0),
        ),
        (
            "IA conc=3",
            PaperApp::IntelligentAssistant,
            3,
            (4000.0, 10000.0),
        ),
        ("VA conc=1", PaperApp::VideoAnalyze, 1, (1500.0, 2000.0)),
    ];
    let mut series = Vec::new();
    for (label, app, conc, range) in setups {
        let profile = profiler.profile_workflow(&app.workflow(), conc);
        let mut counts = Vec::new();
        let mut compressions = Vec::new();
        for &w in weights {
            let synthesizer = Synthesizer::new(SynthesizerConfig {
                weight: w,
                full_range_ms: Some(range),
                ..SynthesizerConfig::default()
            })?;
            let (bundle, report) = synthesizer.synthesize(&profile);
            counts.push(bundle.total_hints());
            compressions.push(report.compression_ratio);
        }
        series.push((label.to_string(), counts, compressions));
    }
    Ok(Fig8Result {
        weights: weights.to_vec(),
        series,
    })
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Figure 8: number of condensed hints vs head weight")?;
        write!(f, "{:>12}", "weight")?;
        for w in &self.weights {
            write!(f, "{w:>8.1}")?;
        }
        writeln!(f)?;
        for (label, counts, compressions) in &self.series {
            write!(f, "{label:>12}")?;
            for c in counts {
                write!(f, "{c:>8}")?;
            }
            writeln!(f, "   (compression {:.1}%)", compressions[0] * 100.0)?;
        }
        Ok(())
    }
}

/// Table II: impact of the head weight on the head function's allocation and
/// chosen percentile.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows `(weight, mean head millicores, mean head percentile)`.
    pub rows: Vec<(f64, f64, f64)>,
}

/// Compute Table II: the budget-weighted average head allocation and head
/// percentile of the full-workflow hints table under each weight, over the
/// 4–10 s budget window §V-E sweeps.
fn table2_weight_impact(
    weights: &[f64],
    samples_per_point: usize,
    seed: u64,
) -> Result<Table2Result, String> {
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point,
        seed,
        ..ProfilerConfig::default()
    })?;
    let profile = profiler.profile_workflow(&PaperApp::IntelligentAssistant.workflow(), 1);
    let window = (4000.0, 10_000.0);
    let mut rows = Vec::new();
    for &w in weights {
        let synthesizer = Synthesizer::new(SynthesizerConfig {
            weight: w,
            full_range_ms: Some(window),
            ..SynthesizerConfig::default()
        })?;
        let (bundle, _) = synthesizer.synthesize(&profile);
        let table = bundle
            .table_after(0)
            .ok_or("synthesized bundle has no full-workflow table")?;
        let mut cores_acc = 0.0;
        let mut pct_acc = 0.0;
        let mut span_acc = 0.0;
        for row in table.rows() {
            let span = (row.end_ms.min(window.1) - row.start_ms.max(window.0)).max(0.0);
            if span <= 0.0 {
                continue;
            }
            cores_acc += f64::from(row.head_cores.get()) * span;
            pct_acc += row.head_percentile.value() * span;
            span_acc += span;
        }
        if span_acc > 0.0 {
            rows.push((w, cores_acc / span_acc, pct_acc / span_acc));
        } else {
            rows.push((w, f64::NAN, f64::NAN));
        }
    }
    Ok(Table2Result { rows })
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Table II: head-function allocation and percentile vs weight (IA)"
        )?;
        writeln!(
            f,
            "{:>8} {:>16} {:>14}",
            "weight", "CPU (millicore)", "percentile (%)"
        )?;
        for (w, cpu, pct) in &self.rows {
            writeln!(f, "{w:>8.1} {cpu:>16.1} {pct:>14.1}")?;
        }
        Ok(())
    }
}

/// §V-H system overhead: online adaptation latency and hints memory footprint.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// Rows `(workflow, mean decision µs, max decision µs, bundle bytes,
    /// condensed hints, synthesis ms)`.
    pub rows: Vec<(String, f64, f64, usize, usize, f64)>,
}

/// Measure the online overhead for IA and VA: build each Janus policy, drive
/// `decisions_per_workflow` adapter decisions across the budget range, and
/// report decision latency plus the hints-table footprint.
///
/// Every decision is timed here, around the policy call, so the latency
/// columns are a census of all decisions (the adapter itself times only a
/// sample of its decisions).
fn overhead_report(
    decisions_per_workflow: usize,
    samples_per_point: usize,
    seed: u64,
) -> Result<OverheadResult, String> {
    let mut rows = Vec::new();
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point,
        seed,
        ..ProfilerConfig::default()
    })?;
    let janus = JanusFactory::new(ExplorationDepth::HeadOnly);
    for app in PaperApp::ALL {
        let workflow = app.workflow();
        let (mut policy, report) = janus.synthesize(
            &profiler.profile_workflow(&workflow, 1),
            SynthesisSettings {
                budget_step_ms: 2.0,
                ..SynthesisSettings::default()
            },
        )?;
        let slo_ms = app.default_slo(1).as_millis();
        use janus_platform::policy::{RequestContext, SizingPolicy};
        let ctx = RequestContext {
            request_id: 0,
            slo: app.default_slo(1),
            concurrency: 1,
            workflow_len: workflow.len(),
        };
        let (mut total_us, mut max_us) = (0.0_f64, 0.0_f64);
        for i in 0..decisions_per_workflow {
            let budget = SimDuration::from_millis(
                slo_ms * (0.3 + 0.7 * (i as f64 / decisions_per_workflow as f64)),
            );
            let index = i % workflow.len();
            // janus-lint: allow(nondeterminism) — the decision latency IS the §V-H measurement; the chosen size never depends on it
            let started = Instant::now();
            let _ = policy.size_next(&ctx, index, budget);
            let us = started.elapsed().as_secs_f64() * 1e6;
            total_us += us;
            max_us = max_us.max(us);
        }
        rows.push((
            app.short_name().to_string(),
            total_us / decisions_per_workflow.max(1) as f64,
            max_us,
            policy.adapter().bundle().approx_size_bytes(),
            policy.adapter().bundle().total_hints(),
            report.synthesis_time_ms,
        ));
    }
    Ok(OverheadResult { rows })
}

impl fmt::Display for OverheadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# System overhead (§V-H)")?;
        writeln!(
            f,
            "{:>4} {:>14} {:>14} {:>12} {:>8} {:>14}",
            "wf", "mean dec (µs)", "max dec (µs)", "hints bytes", "hints", "synth (ms)"
        )?;
        for (wf, mean_us, max_us, bytes, hints, synth_ms) in &self.rows {
            writeln!(
                f,
                "{wf:>4} {mean_us:>14.2} {max_us:>14.2} {bytes:>12} {hints:>8} {synth_ms:>14.1}"
            )?;
        }
        Ok(())
    }
}

use crate::experiments::api::{ExperimentCtx, ExperimentOutput, Scale};

/// The `fig6` experiment.
pub(crate) fn run_fig6(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let slos: &[f64] = match ctx.scale {
        Scale::Paper => &[3.0, 4.0, 5.0, 6.0, 7.0],
        Scale::Quick => &[3.0, 5.0, 7.0],
    };
    let base = ctx.session(PaperApp::IntelligentAssistant, 1);
    Ok(ExperimentOutput::single(fig6_exploration_cost(
        slos, &base,
    )?))
}

/// The `fig8` experiment.
pub(crate) fn run_fig8(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    Ok(ExperimentOutput::single(fig8_hint_counts(
        &[1.0, 1.5, 2.0, 2.5, 3.0],
        ctx.scale.profile_samples(),
        ctx.seed_or(0xF8),
    )?))
}

/// The `table2` experiment.
pub(crate) fn run_table2(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    Ok(ExperimentOutput::single(table2_weight_impact(
        &[1.0, 3.0],
        ctx.scale.profile_samples(),
        ctx.seed_or(0x72),
    )?))
}

/// The `overhead` experiment.
pub(crate) fn run_overhead(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let decisions = match ctx.scale {
        Scale::Paper => 20_000,
        Scale::Quick => 2_000,
    };
    Ok(ExperimentOutput::single(overhead_report(
        decisions,
        ctx.scale.profile_samples(),
        ctx.seed_or(0x0B),
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Load, ServingSession};
    use janus_workloads::apps::PaperApp;

    #[test]
    fn fig8_hint_counts_shrink_with_weight_and_stay_compact() {
        let r = fig8_hint_counts(&[1.0, 3.0], 250, 17).unwrap();
        assert_eq!(r.series.len(), 4);
        for (label, counts, compressions) in &r.series {
            assert_eq!(counts.len(), 2);
            // §V-F: hints stay compact (IA < ~150, VA < ~100) and condensing
            // achieves > 90 % compression.
            assert!(counts[0] < 400, "{label}: {} hints", counts[0]);
            assert!(
                counts[1] <= counts[0] + 30,
                "{label}: weight 3 should not blow up the table"
            );
            assert!(
                compressions.iter().all(|&c| c > 0.8),
                "{label} compression {compressions:?}"
            );
        }
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn table2_weight_3_lowers_head_cores_and_percentile() {
        let r = table2_weight_impact(&[1.0, 3.0], 250, 19).unwrap();
        assert_eq!(r.rows.len(), 2);
        let (w1, cpu1, pct1) = r.rows[0];
        let (w3, cpu3, pct3) = r.rows[1];
        assert_eq!(w1, 1.0);
        assert_eq!(w3, 3.0);
        assert!(cpu3 <= cpu1 + 1e-9, "weight 3 head cpu {cpu3} vs {cpu1}");
        assert!(pct3 <= pct1 + 1e-9, "weight 3 percentile {pct3} vs {pct1}");
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn overhead_stays_well_under_three_milliseconds() {
        let r = overhead_report(500, 250, 23).unwrap();
        assert_eq!(r.rows.len(), 2);
        for (wf, mean_us, max_us, bytes, hints, _) in &r.rows {
            assert!(*mean_us < 3000.0, "{wf} mean decision {mean_us} µs");
            assert!(*max_us >= *mean_us);
            assert!(*bytes > 0 && *hints > 0);
            assert!(
                *bytes < 12 * 1024 * 1024,
                "{wf} bundle {bytes} bytes under 12 MB"
            );
        }
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn fig6_janus_plus_gains_little_but_costs_much_more_time() {
        let base = ServingSession::builder()
            .app(PaperApp::IntelligentAssistant)
            .load(Load::Closed { requests: 100 })
            .samples_per_point(250)
            .budget_step_ms(10.0);
        let r = fig6_exploration_cost(&[3.0, 5.0], &base).unwrap();
        assert_eq!(r.slos_s.len(), 2);
        // Janus+ never uses more CPU than Janus (larger search space)…
        assert!(
            r.mean_plus_saving() > -0.02,
            "saving {}",
            r.mean_plus_saving()
        );
        assert!(
            r.mean_plus_saving() < 0.10,
            "saving should be small: {}",
            r.mean_plus_saving()
        );
        // …and never pays a *lower* synthesis cost (the memoised DP keeps the
        // blow-up far below the paper's 107x).
        assert!(
            r.mean_time_blowup() > 0.5,
            "blow-up {}",
            r.mean_time_blowup()
        );
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn fig6_fails_when_a_policy_reports_no_synthesis() {
        // A "Janus+" that skips the hints pipeline has no synthesis time to
        // report; the figure must say so rather than plot 0 s.
        let base = ServingSession::builder()
            .app(PaperApp::IntelligentAssistant)
            .load(Load::Closed { requests: 5 })
            .samples_per_point(250)
            .budget_step_ms(10.0)
            .register_fn("Janus+", |ctx| {
                Ok(crate::registry::BuiltPolicy::plain(
                    janus_platform::policy::FixedSizingPolicy::uniform(
                        "Janus+",
                        ctx.workflow,
                        ctx.grid.max,
                    )?,
                ))
            });
        let err = fig6_exploration_cost(&[3.0], &base).unwrap_err();
        assert!(err.contains("`Janus+` reported no synthesis"), "{err}");
    }
}
