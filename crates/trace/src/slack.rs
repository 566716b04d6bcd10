//! Slack analysis of a trace (Figure 1a).
//!
//! Slack is "the margin between the actual execution time and the SLO,
//! calculated as `1 − l/T` with `l` and `T` representing end-to-end latency
//! and SLO" (§II-A). Following the common practice the paper cites, each
//! function's SLO is derived from the P99 of its own execution-time
//! distribution — which is exactly what an early-binding developer would
//! provision for.

use crate::synth::Trace;
use janus_simcore::stats::{percentile_of_sorted, Cdf};

/// The slack CDFs reported in Figure 1a.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackCdfs {
    /// Slack CDF over all invocations.
    pub all: Cdf,
    /// Slack CDF over invocations of the top-100 most popular functions.
    pub popular: Cdf,
    /// Fraction of total invocations contributed by the popular functions.
    pub popular_fraction: f64,
}

/// Computes per-invocation slack under P99-derived SLOs.
#[derive(Debug, Clone)]
pub struct SlackAnalysis {
    /// Per-function SLO (P99 execution time), indexed by function id.
    slos: Vec<Option<f64>>,
}

impl SlackAnalysis {
    /// Derive per-function SLOs (P99 of each function's observed durations)
    /// from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut per_function: Vec<Vec<f64>> = vec![Vec::new(); trace.functions];
        for inv in &trace.invocations {
            per_function[inv.function_id].push(inv.duration_ms);
        }
        let slos = per_function
            .into_iter()
            .map(|mut samples| {
                if samples.is_empty() {
                    None
                } else {
                    samples.sort_by(|a, b| a.total_cmp(b));
                    Some(percentile_of_sorted(&samples, 99.0))
                }
            })
            .collect();
        SlackAnalysis { slos }
    }

    /// The SLO assigned to a function (None if it never appears in the trace).
    pub(crate) fn slo(&self, function_id: usize) -> Option<f64> {
        self.slos.get(function_id).copied().flatten()
    }

    /// Slack of one invocation: `1 − duration / SLO`, clamped to `[0, 1]`.
    pub(crate) fn slack(&self, function_id: usize, duration_ms: f64) -> Option<f64> {
        let slo = self.slo(function_id)?;
        if slo <= f64::EPSILON {
            return None;
        }
        Some((1.0 - duration_ms / slo).clamp(0.0, 1.0))
    }

    /// Compute the Figure 1a CDFs for a trace: slack over all invocations and
    /// over the invocations of the `popular_n` most popular functions.
    pub fn cdfs(&self, trace: &Trace, popular_n: usize) -> SlackCdfs {
        let popular: std::collections::HashSet<usize> =
            trace.top_functions(popular_n).into_iter().collect();
        let mut all_slacks = Vec::with_capacity(trace.len());
        let mut popular_slacks = Vec::new();
        for inv in &trace.invocations {
            if let Some(s) = self.slack(inv.function_id, inv.duration_ms) {
                all_slacks.push(s);
                if popular.contains(&inv.function_id) {
                    popular_slacks.push(s);
                }
            }
        }
        SlackCdfs {
            all: Cdf::from_samples(&all_slacks),
            popular: Cdf::from_samples(&popular_slacks),
            popular_fraction: trace.popular_fraction(popular_n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TraceConfig;

    fn trace() -> Trace {
        Trace::generate(&TraceConfig {
            invocations: 40_000,
            ..TraceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn slack_is_bounded_and_mostly_large() {
        let t = trace();
        let analysis = SlackAnalysis::from_trace(&t);
        let cdfs = analysis.cdfs(&t, 100);
        assert_eq!(cdfs.all.len(), t.len());
        // Every slack is within [0, 1].
        assert!(cdfs.all.samples().iter().all(|&s| (0.0..=1.0).contains(&s)));
        // §II-A: "more than 60% of function invocations have slacks over 60%".
        let frac_above_60 = 1.0 - cdfs.all.fraction_below(0.6);
        assert!(frac_above_60 > 0.6, "got {frac_above_60}");
    }

    #[test]
    fn popular_functions_still_show_large_slack() {
        let t = trace();
        let analysis = SlackAnalysis::from_trace(&t);
        let cdfs = analysis.cdfs(&t, 100);
        // §II-A: only ~20% of popular-function invocations have slack < 40%.
        let below_40 = cdfs.popular.fraction_below(0.4);
        assert!(below_40 < 0.35, "got {below_40}");
        assert!(cdfs.popular_fraction > 0.6);
        assert!(cdfs.popular.len() < cdfs.all.len());
    }

    #[test]
    fn slack_of_the_p99_invocation_is_zero_and_of_fast_ones_large() {
        let t = trace();
        let analysis = SlackAnalysis::from_trace(&t);
        let slo = analysis.slo(0).expect("function 0 is invoked");
        assert_eq!(analysis.slack(0, slo), Some(0.0));
        let s = analysis.slack(0, slo * 0.01).unwrap();
        assert!(s > 0.98);
        // Durations beyond the SLO clamp at zero rather than going negative.
        assert_eq!(analysis.slack(0, slo * 10.0), Some(0.0));
        // Unknown function.
        assert_eq!(analysis.slack(usize::MAX - 1, 10.0), None);
    }
}
