//! Figure 7: the timeout and resilience metrics of the TS function (§V-D).

use janus_profiler::percentiles::Percentile;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_workloads::apps::text_to_speech;
use std::fmt;

/// Figure 7 data: timeout vs cores per percentile, and resilience vs cores
/// per concurrency, for the TS function.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// CPU allocations (millicores) the curves are sampled at.
    pub cores: Vec<u32>,
    /// `(percentile, timeout seconds per allocation)` — Figure 7a.
    pub timeout: Vec<(f64, Vec<f64>)>,
    /// `(concurrency, resilience seconds per allocation)` — Figure 7b.
    pub resilience: Vec<(u32, Vec<f64>)>,
}

/// Compute Figure 7 for the TS function: timeout `D(p, k)` for P25/P50/P75
/// and resilience `R(99, k)` for concurrency 1–3. Fails on an invalid
/// profiler configuration (`samples == 0`).
fn fig7_timeout_resilience(samples: usize, seed: u64) -> Result<Fig7Result, String> {
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: samples,
        seed,
        ..ProfilerConfig::default()
    })?;
    let ts = text_to_speech();
    let cores: Vec<u32> = (1000..=3000).step_by(500).collect();

    let profile_c1 = profiler.profile_function(&ts, 1);
    let timeout = [25.0, 50.0, 75.0]
        .iter()
        .map(|&p| {
            let pct = Percentile::new(p)?;
            let series = cores
                .iter()
                .map(|&mc| {
                    profile_c1
                        .timeout(
                            pct,
                            janus_simcore::resources::Millicores::new(mc),
                            Percentile::P99,
                        )
                        .as_secs()
                })
                .collect();
            Ok((p, series))
        })
        .collect::<Result<_, String>>()?;

    let resilience = [1u32, 2, 3]
        .iter()
        .map(|&conc| {
            let profile = profiler.profile_function(&ts, conc);
            let series = cores
                .iter()
                .map(|&mc| {
                    profile
                        .resilience(
                            Percentile::P99,
                            janus_simcore::resources::Millicores::new(mc),
                        )
                        .as_secs()
                })
                .collect();
            (conc, series)
        })
        .collect();

    Ok(Fig7Result {
        cores,
        timeout,
        resilience,
    })
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Figure 7a: timeout of TS (s) vs CPU cores")?;
        write!(f, "{:>10}", "millicores")?;
        for c in &self.cores {
            write!(f, "{c:>8}")?;
        }
        writeln!(f)?;
        for (p, series) in &self.timeout {
            write!(f, "{:>10}", format!("P{p:.0}"))?;
            for v in series {
                write!(f, "{v:>8.3}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "# Figure 7b: resilience of TS (s) vs CPU cores")?;
        for (conc, series) in &self.resilience {
            write!(f, "{:>10}", format!("conc={conc}"))?;
            for v in series {
                write!(f, "{v:>8.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};

/// `fig7` as a registered [`Experiment`].
pub struct Fig7Experiment;

impl Experiment for Fig7Experiment {
    fn name(&self) -> &str {
        "fig7"
    }

    fn describe(&self) -> &str {
        "Figure 7: timeout and resilience of the TS function"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        Ok(ExperimentOutput::single(fig7_timeout_resilience(
            ctx.profile_samples(),
            ctx.seed_or(0xF7),
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shapes_match_the_paper() {
        let r = fig7_timeout_resilience(400, 9).unwrap();
        assert_eq!(r.cores, vec![1000, 1500, 2000, 2500, 3000]);
        assert_eq!(r.timeout.len(), 3);
        assert_eq!(r.resilience.len(), 3);

        // 7a: timeout decreases as cores increase, and as the percentile rises.
        for (_, series) in &r.timeout {
            assert!(series.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        }
        let t25 = &r.timeout[0].1;
        let t75 = &r.timeout[2].1;
        assert!(t25[0] > t75[0], "P25 timeout exceeds P75 timeout");

        // 7b: resilience decreases with cores (zero at Kmax) and grows with
        // concurrency.
        for (_, series) in &r.resilience {
            assert!(series.windows(2).all(|w| w[1] <= w[0] + 1e-9));
            assert!(
                series.last().unwrap().abs() < 1e-9,
                "resilience at Kmax is 0"
            );
        }
        let c1 = &r.resilience[0].1;
        let c3 = &r.resilience[2].1;
        assert!(c3[0] > c1[0], "higher concurrency boosts resilience");
        assert!(!format!("{r}").is_empty());
    }
}
