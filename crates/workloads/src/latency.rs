//! Resource/latency and batching curves.
//!
//! The deterministic part of a function's execution time as a function of its
//! CPU allocation follows an Amdahl-style law: a `serial_fraction` of the work
//! cannot be accelerated by adding millicores, the rest scales inversely with
//! the allocation relative to a 1000 mc reference. This reproduces the
//! paper's observation that resilience (achievable speedup by scaling to
//! `Kmax`) shows "diminishing returns on execution time despite the addition
//! of more resources" (§V-D).

use janus_simcore::resources::Millicores;

/// Reference allocation at which `base_ms` is defined (1 core).
pub const REFERENCE_MILLICORES: f64 = 1000.0;

/// Deterministic latency parameters of a function.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyParams {
    /// Execution time in milliseconds at the reference allocation (1000 mc),
    /// batch size 1, nominal working set, no interference, no noise.
    pub base_ms: f64,
    /// Fraction of the work that does not speed up with more CPU (0..1).
    pub serial_fraction: f64,
    /// Extra relative time per additional request in a batch. A batch of `b`
    /// requests takes `1 + batch_overhead * (b - 1)` times longer than a
    /// single request (but serves `b` requests, so batching still pays off).
    pub batch_overhead: f64,
}

impl LatencyParams {
    /// Validate parameter ranges.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.base_ms.is_finite() && self.base_ms > 0.0) {
            return Err(format!("base_ms must be positive, got {}", self.base_ms));
        }
        if !(0.0..=1.0).contains(&self.serial_fraction) {
            return Err(format!(
                "serial_fraction must be in [0,1], got {}",
                self.serial_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.batch_overhead) {
            return Err(format!(
                "batch_overhead must be in [0,1], got {}",
                self.batch_overhead
            ));
        }
        Ok(())
    }

    /// Deterministic execution time (ms) at allocation `mc` and batch size
    /// `batch` for the nominal working set.
    pub(crate) fn deterministic_ms(&self, mc: Millicores, batch: u32) -> f64 {
        self.base_ms
            * amdahl_speedup(self.serial_fraction, mc)
            * batch_factor(self.batch_overhead, batch)
    }
}

/// Amdahl-style slowdown factor relative to the 1000 mc reference: at the
/// reference it is 1.0; with more cores it approaches `serial_fraction`
/// asymptotically; with fewer cores it grows beyond 1.0.
fn amdahl_speedup(serial_fraction: f64, mc: Millicores) -> f64 {
    let k = f64::from(mc.get()).max(1.0);
    serial_fraction + (1.0 - serial_fraction) * (REFERENCE_MILLICORES / k)
}

/// Batch processing time factor: `1 + overhead * (batch - 1)`.
fn batch_factor(batch_overhead: f64, batch: u32) -> f64 {
    1.0 + batch_overhead * (batch.max(1) - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_allocation_is_identity() {
        assert!((amdahl_speedup(0.3, Millicores::new(1000)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_cores_never_slow_down() {
        let mut prev = f64::INFINITY;
        for mc in (1000..=3000).step_by(100) {
            let f = amdahl_speedup(0.25, Millicores::new(mc));
            assert!(f <= prev, "amdahl factor must be non-increasing in cores");
            prev = f;
        }
    }

    #[test]
    fn serial_fraction_bounds_the_speedup() {
        // With serial fraction 0.4, even infinite cores cannot go below 0.4x.
        let f = amdahl_speedup(0.4, Millicores::new(1_000_000));
        assert!(f > 0.4 && f < 0.41);
        // Fully parallel work scales perfectly.
        let f = amdahl_speedup(0.0, Millicores::new(2000));
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn diminishing_returns_with_more_cores() {
        // Gain from 1000->2000 must exceed gain from 2000->3000 (Fig. 7b).
        let g1 =
            amdahl_speedup(0.3, Millicores::new(1000)) - amdahl_speedup(0.3, Millicores::new(2000));
        let g2 =
            amdahl_speedup(0.3, Millicores::new(2000)) - amdahl_speedup(0.3, Millicores::new(3000));
        assert!(g1 > g2);
    }

    #[test]
    fn batch_factor_grows_linearly_but_sublinearly_per_request() {
        assert_eq!(batch_factor(0.5, 1), 1.0);
        assert_eq!(batch_factor(0.5, 0), 1.0, "batch 0 treated as 1");
        assert_eq!(batch_factor(0.5, 3), 2.0);
        // Per-request cost shrinks with batch size: batching pays off.
        let per1 = batch_factor(0.5, 1) / 1.0;
        let per3 = batch_factor(0.5, 3) / 3.0;
        assert!(per3 < per1);
    }

    #[test]
    fn deterministic_ms_combines_factors() {
        let p = LatencyParams {
            base_ms: 400.0,
            serial_fraction: 0.25,
            batch_overhead: 0.4,
        };
        p.validate().unwrap();
        let at_ref = p.deterministic_ms(Millicores::new(1000), 1);
        assert!((at_ref - 400.0).abs() < 1e-9);
        let at_3000 = p.deterministic_ms(Millicores::new(3000), 1);
        assert!(at_3000 < at_ref);
        let batched = p.deterministic_ms(Millicores::new(1000), 2);
        assert!((batched - 400.0 * 1.4).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let bad = LatencyParams {
            base_ms: -1.0,
            serial_fraction: 0.2,
            batch_overhead: 0.1,
        };
        assert!(bad.validate().is_err());
        let bad = LatencyParams {
            base_ms: 10.0,
            serial_fraction: 1.5,
            batch_overhead: 0.1,
        };
        assert!(bad.validate().is_err());
        let bad = LatencyParams {
            base_ms: 10.0,
            serial_fraction: 0.5,
            batch_overhead: 2.0,
        };
        assert!(bad.validate().is_err());
    }
}
