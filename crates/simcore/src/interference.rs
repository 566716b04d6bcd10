//! Co-location performance-interference model.
//!
//! §II-B of the paper measures how co-locating 1–6 instances of the same
//! function on one VM inflates execution time, and finds slowdowns up to
//! 8.1× with the severity depending on the function's dominant resource
//! (network and memory bandwidth contend hardest, CPU least, because CPU is
//! partitioned by the allocation while bandwidth is not).
//!
//! The model here is a per-dimension convex slowdown curve
//! `1 + a * (n - 1)^b` where `n` is the number of co-located instances of the
//! same function. Defaults are calibrated so that six co-located instances of
//! a network-bound function slow down ≈ 8×, reproducing Figure 1c.

/// The resource dimension a function predominantly stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceDimension {
    /// Compute-bound (e.g. AES encryption). CPU is partitioned per-pod, so
    /// contention is mildest.
    Cpu,
    /// Memory-bandwidth-bound (e.g. in-memory database reads).
    Memory,
    /// Disk-I/O-bound (e.g. local disk writes).
    Io,
    /// Network-bandwidth-bound (e.g. socket communication). Worst contention.
    Network,
}

impl ResourceDimension {
    /// All dimensions, in the order Figure 1c plots them.
    pub const ALL: [ResourceDimension; 4] = [
        ResourceDimension::Cpu,
        ResourceDimension::Memory,
        ResourceDimension::Io,
        ResourceDimension::Network,
    ];
}

impl std::fmt::Display for ResourceDimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ResourceDimension::Cpu => "CPU",
            ResourceDimension::Memory => "Memory",
            ResourceDimension::Io => "IO",
            ResourceDimension::Network => "Network",
        };
        f.write_str(s)
    }
}

/// Per-dimension slowdown curve parameters: `slowdown = 1 + coeff * (n-1)^exp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownCurve {
    /// Linear coefficient of the contention term.
    pub coeff: f64,
    /// Exponent of the contention term (>1 gives convex degradation).
    pub exp: f64,
}

impl SlowdownCurve {
    /// Slowdown factor for `colocated` instances of the same function
    /// (including the one being measured). `colocated = 1` means running
    /// alone and always yields 1.0.
    pub(crate) fn factor(&self, colocated: usize) -> f64 {
        if colocated <= 1 {
            return 1.0;
        }
        1.0 + self.coeff * ((colocated - 1) as f64).powf(self.exp)
    }
}

/// Interference model mapping (dimension, co-location degree) to a latency
/// multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceModel {
    cpu: SlowdownCurve,
    memory: SlowdownCurve,
    io: SlowdownCurve,
    network: SlowdownCurve,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl InterferenceModel {
    /// Parameters calibrated against Figure 1c: at six co-located instances
    /// the slowdowns are roughly CPU ≈ 1.9×, IO ≈ 3.4×, Memory ≈ 5.5×,
    /// Network ≈ 8.1×.
    pub fn paper_calibrated() -> Self {
        InterferenceModel {
            cpu: SlowdownCurve {
                coeff: 0.18,
                exp: 1.0,
            },
            memory: SlowdownCurve {
                coeff: 0.55,
                exp: 1.28,
            },
            io: SlowdownCurve {
                coeff: 0.33,
                exp: 1.23,
            },
            network: SlowdownCurve {
                coeff: 0.80,
                exp: 1.35,
            },
        }
    }

    /// A model with no interference at all (ablation / unit-test baseline).
    pub fn none() -> Self {
        let flat = SlowdownCurve {
            coeff: 0.0,
            exp: 1.0,
        };
        InterferenceModel {
            cpu: flat,
            memory: flat,
            io: flat,
            network: flat,
        }
    }

    /// Curve for a dimension.
    fn curve(&self, dim: ResourceDimension) -> SlowdownCurve {
        match dim {
            ResourceDimension::Cpu => self.cpu,
            ResourceDimension::Memory => self.memory,
            ResourceDimension::Io => self.io,
            ResourceDimension::Network => self.network,
        }
    }

    /// Latency multiplier for a function of dominant dimension `dim` running
    /// with `colocated` instances of the same function on its node.
    pub fn slowdown(&self, dim: ResourceDimension, colocated: usize) -> f64 {
        self.curve(dim).factor(colocated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_alone_never_slows_down() {
        let m = InterferenceModel::paper_calibrated();
        for dim in ResourceDimension::ALL {
            assert_eq!(m.slowdown(dim, 1), 1.0);
            assert_eq!(m.slowdown(dim, 0), 1.0);
        }
    }

    #[test]
    fn slowdown_is_monotone_in_colocation() {
        let m = InterferenceModel::paper_calibrated();
        for dim in ResourceDimension::ALL {
            let mut prev = 1.0;
            for n in 1..=6 {
                let s = m.slowdown(dim, n);
                assert!(s >= prev, "{dim} slowdown must be monotone");
                prev = s;
            }
        }
    }

    #[test]
    fn calibration_matches_figure_1c_shape() {
        let m = InterferenceModel::paper_calibrated();
        let net6 = m.slowdown(ResourceDimension::Network, 6);
        let mem6 = m.slowdown(ResourceDimension::Memory, 6);
        let io6 = m.slowdown(ResourceDimension::Io, 6);
        let cpu6 = m.slowdown(ResourceDimension::Cpu, 6);
        assert!(net6 > 7.0 && net6 < 9.5, "network worst (~8.1x): {net6}");
        assert!(cpu6 > 1.5 && cpu6 < 2.5, "cpu mildest (~1.9x): {cpu6}");
        assert!(
            net6 > mem6 && mem6 > io6 && io6 > cpu6,
            "ordering per Fig 1c"
        );
    }

    #[test]
    fn none_model_is_identity() {
        let m = InterferenceModel::none();
        for dim in ResourceDimension::ALL {
            for n in 0..10 {
                assert_eq!(m.slowdown(dim, n), 1.0);
            }
        }
    }

    #[test]
    fn with_curve_overrides_one_dimension() {
        let m = InterferenceModel {
            cpu: SlowdownCurve {
                coeff: 1.0,
                exp: 1.0,
            },
            ..InterferenceModel::none()
        };
        assert_eq!(m.slowdown(ResourceDimension::Cpu, 3), 3.0);
        assert_eq!(m.slowdown(ResourceDimension::Memory, 3), 1.0);
    }
}
