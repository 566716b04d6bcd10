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
//! Every grid point of a function replays the same seeded stream of random
//! factors (common random numbers), and a sample's latency,
//! `det(k) × factor × slowdown`, is monotone in its factor. So the profiler
//! draws the factors once per function, sorts them once, and maps the sorted
//! factors onto each grid point: each point's samples come out already
//! sorted, bit-identical to drawing, timing and sorting per point. That
//! leaves a few microseconds of arithmetic per grid point, too little to
//! hand to threads, so the profiler runs on the calling thread; the sweep
//! driver, which profiles once per distinct set-up, is the only user of
//! [`janus_simcore::parallel::map`].

use crate::profile::{FunctionProfile, WorkflowProfile};
use janus_simcore::interference::InterferenceModel;
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
        // Common random numbers: every grid point uses the same working-set
        // / noise factors, so profiled latencies are exactly monotone in the
        // allocation (variance reduction). Latency is monotone in the factor,
        // so sorting the factors once sorts every point's samples.
        let mut rng = SimRng::seed_from_u64(
            cfg.seed ^ (u64::from(concurrency) << 16) ^ hash_name(function.name()),
        );
        let mut factors: Vec<f64> = (0..cfg.samples_per_point)
            .map(|_| function.sample_random_factor(&mut rng))
            .collect();
        factors.sort_by(f64::total_cmp);
        let samples: BTreeMap<u32, Vec<f64>> = cfg
            .grid
            .iter()
            .map(|mc| {
                let latencies = factors
                    .iter()
                    .map(|&factor| {
                        function
                            .execution_time(
                                mc,
                                concurrency,
                                factor,
                                cfg.colocation_degree,
                                &cfg.interference,
                            )
                            .as_millis()
                    })
                    .collect();
                (mc.get(), latencies)
            })
            .collect();
        FunctionProfile::from_samples(function.name(), concurrency, cfg.grid, samples)
            // janus-lint: allow(unwrap-discipline) — every grid point gets `samples_per_point` (validated >= 10) finite, non-negative latencies, which is all `from_samples` checks
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
            // janus-lint: allow(unwrap-discipline) — a workflow has at least one function and every profile above shares this grid and concurrency, which is all `new` checks
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
    use janus_workloads::apps::{
        intelligent_assistant, object_detection, text_to_speech, video_analyze,
    };

    fn quick_profiler() -> Profiler {
        Profiler::new(ProfilerConfig {
            samples_per_point: 400,
            ..ProfilerConfig::default()
        })
        .unwrap()
    }

    /// The profiler's former algorithm, kept as its oracle: reseed the
    /// stream at every grid point, draw and time `samples_per_point`
    /// executions there, and let `from_samples` sort them.
    fn per_point_profile(
        cfg: &ProfilerConfig,
        function: &FunctionModel,
        concurrency: u32,
    ) -> FunctionProfile {
        let samples = cfg
            .grid
            .iter()
            .map(|mc| {
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
            .collect();
        FunctionProfile::from_samples(function.name(), concurrency, cfg.grid, samples).unwrap()
    }

    #[test]
    fn sorted_factors_reproduce_per_point_draws_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut compared = 0;
        for workflow in [intelligent_assistant(), video_analyze()] {
            for function in workflow.functions() {
                for concurrency in [1, 3] {
                    for colocation_degree in [1, 2] {
                        for samples_per_point in [10, 300] {
                            let cfg = ProfilerConfig {
                                samples_per_point,
                                colocation_degree,
                                ..ProfilerConfig::default()
                            };
                            let got = Profiler::new(cfg.clone())
                                .unwrap()
                                .profile_function(function, concurrency);
                            let want = per_point_profile(&cfg, function, concurrency);
                            for mc in cfg.grid.iter() {
                                assert_eq!(
                                    bits(got.raw_samples(mc)),
                                    bits(want.raw_samples(mc)),
                                    "{} at concurrency {concurrency}, degree \
                                     {colocation_degree}, {samples_per_point} samples, {mc}",
                                    function.name()
                                );
                            }
                            assert_eq!(got, want);
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(
            compared,
            6 * 8,
            "three IA and three VA functions, 8 settings each"
        );
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
