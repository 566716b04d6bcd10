//! Function latency models.
//!
//! A [`FunctionModel`] is the simulator's stand-in for a deployed serverless
//! function: it produces execution times as a function of the CPU allocation,
//! batch size, sampled working set, co-location degree and residual noise.

use crate::latency::LatencyParams;
use crate::workingset::WorksetDistribution;
use janus_simcore::interference::{InterferenceModel, ResourceDimension};
use janus_simcore::resources::Millicores;
use janus_simcore::rng::SimRng;
use janus_simcore::time::SimDuration;

/// Model of one serverless function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionModel {
    name: String,
    /// Dominant resource dimension (drives co-location interference).
    dominant: ResourceDimension,
    /// Whether the function can process batched requests (FE and ICO in VA
    /// cannot, which is why VA is only evaluated at concurrency 1).
    batchable: bool,
    /// Deterministic latency curve.
    params: LatencyParams,
    /// Working-set (input-size) distribution.
    workset: WorksetDistribution,
    /// Sigma of the residual log-normal noise (interference jitter, GC, …).
    noise_sigma: f64,
}

impl FunctionModel {
    /// Build a function model, validating all parameters.
    pub(crate) fn new(
        name: impl Into<String>,
        dominant: ResourceDimension,
        batchable: bool,
        params: LatencyParams,
        workset: WorksetDistribution,
        noise_sigma: f64,
    ) -> Result<Self, String> {
        params.validate()?;
        workset.validate()?;
        if !(0.0..=2.0).contains(&noise_sigma) {
            return Err(format!("noise_sigma out of range: {noise_sigma}"));
        }
        Ok(FunctionModel {
            name: name.into(),
            dominant,
            batchable,
            params,
            workset,
            noise_sigma,
        })
    }

    /// Function name (e.g. `"od"`, `"qa"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dominant resource dimension.
    pub fn dominant(&self) -> ResourceDimension {
        self.dominant
    }

    /// Effective batch size: non-batchable functions always execute with
    /// batch 1 regardless of the requested concurrency.
    fn effective_batch(&self, requested: u32) -> u32 {
        if self.batchable {
            requested.max(1)
        } else {
            1
        }
    }

    /// Deterministic execution time at allocation `mc` and requested batch
    /// size `batch` (nominal working set, no interference, no noise).
    pub(crate) fn deterministic_ms(&self, mc: Millicores, batch: u32) -> f64 {
        self.params
            .deterministic_ms(mc, self.effective_batch(batch))
    }

    /// Sample the request-specific random factor (working-set scale × noise).
    /// The factor is independent of the resource knobs, so it can be drawn
    /// once per request and reused when a late-binding policy re-sizes the
    /// function before it starts.
    pub fn sample_random_factor(&self, rng: &mut SimRng) -> f64 {
        let workset = self.workset.sample(rng);
        let noise = rng.lognormal_noise(self.noise_sigma);
        workset * noise
    }

    /// Execution time given every factor explicitly. `random_factor` comes
    /// from [`Self::sample_random_factor`]; `colocated` is the number of
    /// instances of this function sharing the node (1 = alone).
    pub fn execution_time(
        &self,
        mc: Millicores,
        batch: u32,
        random_factor: f64,
        colocated: usize,
        interference: &InterferenceModel,
    ) -> SimDuration {
        let det = self.deterministic_ms(mc, batch);
        let slow = interference.slowdown(self.dominant, colocated);
        SimDuration::from_millis(det * random_factor.max(0.0) * slow)
    }

    /// Convenience: sample a full execution time in one call, for callers
    /// that do not need to separate the random factor.
    pub fn sample_execution_time(
        &self,
        mc: Millicores,
        batch: u32,
        colocated: usize,
        interference: &InterferenceModel,
        rng: &mut SimRng,
    ) -> SimDuration {
        let factor = self.sample_random_factor(rng);
        self.execution_time(mc, batch, factor, colocated, interference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_simcore::stats::Summary;

    fn model() -> FunctionModel {
        FunctionModel::new(
            "od",
            ResourceDimension::Cpu,
            true,
            LatencyParams {
                base_ms: 500.0,
                serial_fraction: 0.25,
                batch_overhead: 0.45,
            },
            WorksetDistribution::coco_objects(),
            0.2,
        )
        .unwrap()
    }

    #[test]
    fn constructor_validates_parameters() {
        assert!(FunctionModel::new(
            "bad",
            ResourceDimension::Cpu,
            true,
            LatencyParams {
                base_ms: -5.0,
                serial_fraction: 0.2,
                batch_overhead: 0.1
            },
            WorksetDistribution::Constant,
            0.1,
        )
        .is_err());
        assert!(FunctionModel::new(
            "bad",
            ResourceDimension::Cpu,
            true,
            LatencyParams {
                base_ms: 5.0,
                serial_fraction: 0.2,
                batch_overhead: 0.1
            },
            WorksetDistribution::Constant,
            5.0,
        )
        .is_err());
    }

    #[test]
    fn more_cores_reduce_latency() {
        let m = model();
        let slow = m.deterministic_ms(Millicores::new(1000), 1);
        let fast = m.deterministic_ms(Millicores::new(3000), 1);
        assert!(fast < slow);
        assert!(fast > slow * 0.4, "serial fraction bounds the speedup");
    }

    #[test]
    fn non_batchable_functions_ignore_batch_size() {
        let nb = FunctionModel::new(
            "fe",
            ResourceDimension::Io,
            false,
            LatencyParams {
                base_ms: 200.0,
                serial_fraction: 0.3,
                batch_overhead: 0.5,
            },
            WorksetDistribution::Constant,
            0.0,
        )
        .unwrap();
        assert_eq!(nb.effective_batch(3), 1);
        assert_eq!(
            nb.deterministic_ms(Millicores::new(1000), 3),
            nb.deterministic_ms(Millicores::new(1000), 1)
        );
        let b = model();
        assert_eq!(b.effective_batch(3), 3);
        assert!(
            b.deterministic_ms(Millicores::new(1000), 3)
                > b.deterministic_ms(Millicores::new(1000), 1)
        );
    }

    #[test]
    fn random_factor_is_resource_independent() {
        let m = model();
        let mut rng = SimRng::seed_from_u64(1);
        let f = m.sample_random_factor(&mut rng);
        let t1 = m.execution_time(Millicores::new(1000), 1, f, 1, &InterferenceModel::none());
        let t2 = m.execution_time(Millicores::new(3000), 1, f, 1, &InterferenceModel::none());
        // Same random factor: the ratio equals the deterministic ratio.
        let expected = m.deterministic_ms(Millicores::new(1000), 1)
            / m.deterministic_ms(Millicores::new(3000), 1);
        assert!(((t1 / t2) - expected).abs() < 1e-9);
    }

    #[test]
    fn interference_prolongs_execution() {
        let m = FunctionModel::new(
            "net",
            ResourceDimension::Network,
            true,
            LatencyParams {
                base_ms: 100.0,
                serial_fraction: 0.2,
                batch_overhead: 0.1,
            },
            WorksetDistribution::Constant,
            0.0,
        )
        .unwrap();
        let intf = InterferenceModel::paper_calibrated();
        let alone = m.execution_time(Millicores::new(1000), 1, 1.0, 1, &intf);
        let crowded = m.execution_time(Millicores::new(1000), 1, 1.0, 6, &intf);
        assert!(crowded.as_millis() / alone.as_millis() > 5.0);
    }

    #[test]
    fn sampled_latency_distribution_is_skewed() {
        let m = model();
        let mut rng = SimRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..4000)
            .map(|_| {
                m.sample_execution_time(
                    Millicores::new(2000),
                    1,
                    1,
                    &InterferenceModel::none(),
                    &mut rng,
                )
                .as_millis()
            })
            .collect();
        let s = Summary::from_samples(&samples).unwrap();
        // Working set (2.7x span) + noise: the tail ratio the paper motivates.
        assert!(s.tail_ratio() > 1.5, "P99/P50 = {}", s.tail_ratio());
        assert!(s.tail_ratio() < 5.0, "P99/P50 = {}", s.tail_ratio());
    }
}
