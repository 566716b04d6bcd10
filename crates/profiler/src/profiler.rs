//! The profiling driver.
//!
//! On the developer side, the profiler "interacts with the developer to
//! collect the domain knowledge of the application, such as the workflow
//! structure, constitutional functions execution time under varying CPU cores
//! and concurrency settings, and SLO requirements" (§III-A). In this
//! reproduction the "measurement" runs the workload latency models the same
//! way the authors ran their functions on Fission: many sample executions per
//! (allocation, concurrency) grid point.
//!
//! Grid points are profiled in parallel ([`janus_simcore::parallel::map`]) —
//! profiling is offline and embarrassingly parallel, exactly the "explores
//! different percentiles concurrently" structure the paper describes for the
//! offline pipeline.

use crate::profile::{FunctionProfile, WorkflowProfile};
use janus_simcore::interference::InterferenceModel;
use janus_simcore::parallel;
use janus_simcore::resources::CoreGrid;
use janus_simcore::rng::SimRng;
use janus_workloads::function::FunctionModel;
use janus_workloads::workflow::Workflow;
use std::collections::BTreeMap;

/// Profiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerConfig {
    /// Number of sample executions per (allocation, concurrency) grid point.
    pub samples_per_point: usize,
    /// CPU-allocation grid to sweep.
    pub grid: CoreGrid,
    /// Number of co-located instances assumed while profiling. The paper
    /// profiles on a dedicated testbed (degree 1); production profiling could
    /// use a higher degree to bake typical interference into the profiles.
    pub colocation_degree: usize,
    /// Interference model applied during profiling.
    pub interference: InterferenceModel,
    /// RNG seed (profiles are deterministic given the seed).
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            samples_per_point: 1500,
            grid: CoreGrid::paper_default(),
            colocation_degree: 1,
            interference: InterferenceModel::paper_calibrated(),
            seed: 0xC0FFEE,
        }
    }
}

impl ProfilerConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples_per_point < 10 {
            return Err(format!(
                "samples_per_point must be at least 10 (got {}) to make percentiles meaningful",
                self.samples_per_point
            ));
        }
        if self.colocation_degree == 0 {
            return Err("colocation_degree must be at least 1".into());
        }
        Ok(())
    }
}

/// The developer-side profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// Create a profiler, validating the configuration.
    pub fn new(config: ProfilerConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Profiler { config })
    }

    /// Profiler with default configuration.
    pub fn with_defaults() -> Self {
        Profiler {
            config: ProfilerConfig::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Profile one function at the given concurrency (batch size).
    pub fn profile_function(&self, function: &FunctionModel, concurrency: u32) -> FunctionProfile {
        let cfg = &self.config;
        let samples: BTreeMap<u32, Vec<f64>> = parallel::map(cfg.grid.iter().collect(), |mc| {
            // Common random numbers: every grid point replays the same
            // working-set / noise stream, so profiled latencies are
            // exactly monotone in the allocation (variance reduction) and
            // independent of which thread profiles the point.
            let mut rng = SimRng::seed_from_u64(
                cfg.seed ^ (u64::from(concurrency) << 16) ^ hash_name(function.name()),
            );
            let v: Vec<f64> = (0..cfg.samples_per_point)
                .map(|_| {
                    function
                        .sample_execution_time(
                            mc,
                            concurrency,
                            cfg.colocation_degree,
                            &cfg.interference,
                            &mut rng,
                        )
                        .as_millis()
                })
                .collect();
            (mc.get(), v)
        })
        .into_iter()
        .collect();
        FunctionProfile::from_samples(function.name(), concurrency, cfg.grid, samples)
            .expect("profiler produces complete grids")
    }

    /// Profile every function of a workflow at the given concurrency.
    pub fn profile_workflow(&self, workflow: &Workflow, concurrency: u32) -> WorkflowProfile {
        let functions: Vec<FunctionProfile> = workflow
            .functions()
            .iter()
            .map(|f| self.profile_function(f, concurrency))
            .collect();
        WorkflowProfile::new(workflow.name(), concurrency, self.config.grid, functions)
            .expect("profiles share grid and concurrency by construction")
    }

    /// Profile a workflow at several concurrency levels (the paper profiles
    /// IA at concurrency 1, 2 and 3).
    pub fn profile_concurrencies(
        &self,
        workflow: &Workflow,
        concurrencies: &[u32],
    ) -> Vec<WorkflowProfile> {
        concurrencies
            .iter()
            .map(|&c| self.profile_workflow(workflow, c))
            .collect()
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a; stable across runs (unlike `DefaultHasher` which is randomised).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentiles::Percentile;
    use janus_simcore::resources::Millicores;
    use janus_workloads::apps::{intelligent_assistant, object_detection, text_to_speech};

    fn quick_profiler() -> Profiler {
        Profiler::new(ProfilerConfig {
            samples_per_point: 400,
            ..ProfilerConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(Profiler::new(ProfilerConfig {
            samples_per_point: 1,
            ..ProfilerConfig::default()
        })
        .is_err());
        assert!(Profiler::new(ProfilerConfig {
            colocation_degree: 0,
            ..ProfilerConfig::default()
        })
        .is_err());
        assert!(Profiler::with_defaults().config().validate().is_ok());
    }

    #[test]
    fn profiles_are_deterministic_given_the_seed() {
        let profiler = quick_profiler();
        let od = object_detection();
        let a = profiler.profile_function(&od, 1);
        let b = profiler.profile_function(&od, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn profiled_latency_decreases_with_cores_and_increases_with_percentile() {
        let profiler = quick_profiler();
        let p = profiler.profile_function(&object_detection(), 1);
        let l_1000 = p.latency(Percentile::P99, Millicores::new(1000));
        let l_3000 = p.latency(Percentile::P99, Millicores::new(3000));
        assert!(l_3000 < l_1000, "P99 {l_3000} should be below {l_1000}");
        let l_p50 = p.latency(Percentile::P50, Millicores::new(2000));
        let l_p99 = p.latency(Percentile::P99, Millicores::new(2000));
        assert!(l_p99 > l_p50);
    }

    #[test]
    fn timeout_shrinks_with_more_cores_and_higher_percentiles() {
        // Figure 7a: timeout decreases as either percentile or cores increase.
        let profiler = quick_profiler();
        let p = profiler.profile_function(&text_to_speech(), 1);
        let d_low_cores = p.timeout(Percentile::P50, Millicores::new(1000), Percentile::P99);
        let d_high_cores = p.timeout(Percentile::P50, Millicores::new(3000), Percentile::P99);
        assert!(d_high_cores < d_low_cores);
        let d_p25 = p.timeout(
            Percentile::new(25.0).unwrap(),
            Millicores::new(2000),
            Percentile::P99,
        );
        let d_p75 = p.timeout(
            Percentile::new(75.0).unwrap(),
            Millicores::new(2000),
            Percentile::P99,
        );
        assert!(d_p75 < d_p25);
    }

    #[test]
    fn resilience_shrinks_with_more_cores_and_grows_with_concurrency() {
        // Figure 7b: resilience decreases with provisioned cores and grows
        // with concurrency (more load -> more sensitivity to resources).
        let profiler = quick_profiler();
        let ts = text_to_speech();
        let p1 = profiler.profile_function(&ts, 1);
        let r_1000 = p1.resilience(Percentile::P99, Millicores::new(1000));
        let r_2500 = p1.resilience(Percentile::P99, Millicores::new(2500));
        assert!(r_2500 < r_1000);
        let p3 = profiler.profile_function(&ts, 3);
        let r_conc3 = p3.resilience(Percentile::P99, Millicores::new(1000));
        assert!(r_conc3 > r_1000, "conc-3 resilience {r_conc3} vs {r_1000}");
    }

    #[test]
    fn workflow_profile_covers_all_functions_and_concurrencies() {
        let profiler = quick_profiler();
        let ia = intelligent_assistant();
        let profiles = profiler.profile_concurrencies(&ia, &[1, 2]);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].len(), 3);
        assert_eq!(profiles[0].concurrency(), 1);
        assert_eq!(profiles[1].concurrency(), 2);
        assert_eq!(profiles[0].function(0).unwrap().function(), "od");
        // Budget range is sensible: Tmin < SLO < Tmax for the 3s IA SLO.
        let tmin = profiles[0].min_budget(Percentile::P1).as_millis();
        let tmax = profiles[0].max_budget(Percentile::P99).as_millis();
        assert!(tmin < 3000.0, "Tmin {tmin}");
        assert!(tmax > 3000.0, "Tmax {tmax}");
    }
}
