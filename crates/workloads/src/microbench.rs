//! The four microbenchmark functions of §II-B / Figure 1c.
//!
//! Each function is dominated by one resource dimension; co-locating multiple
//! instances of the same function on one VM contends on that dimension and
//! prolongs execution (up to 8.1× for the network-bound function at six
//! co-located instances).

use crate::apps::constant;
use crate::function::FunctionModel;
use crate::latency::LatencyParams;
use crate::workingset::WorksetDistribution;
use janus_simcore::interference::ResourceDimension;

/// AES encryption: CPU-bound. CPU is partitioned per-pod so contention is the
/// mildest of the four.
pub fn cpu_intensive() -> FunctionModel {
    let built = FunctionModel::new(
        "aes-encrypt",
        ResourceDimension::Cpu,
        true,
        LatencyParams {
            base_ms: 180.0,
            serial_fraction: 0.10,
            batch_overhead: 0.6,
        },
        WorksetDistribution::Uniform { min: 0.9, max: 1.1 },
        0.08,
    );
    constant(built, "static parameters are valid")
}

/// Reads from an in-memory (Redis-like) database: memory-bandwidth bound.
pub fn memory_intensive() -> FunctionModel {
    let built = FunctionModel::new(
        "redis-read",
        ResourceDimension::Memory,
        true,
        LatencyParams {
            base_ms: 140.0,
            serial_fraction: 0.55,
            batch_overhead: 0.5,
        },
        WorksetDistribution::Uniform { min: 0.9, max: 1.1 },
        0.10,
    );
    constant(built, "static parameters are valid")
}

/// Writes to local disk: IO bound.
pub fn io_intensive() -> FunctionModel {
    let built = FunctionModel::new(
        "disk-write",
        ResourceDimension::Io,
        true,
        LatencyParams {
            base_ms: 200.0,
            serial_fraction: 0.60,
            batch_overhead: 0.4,
        },
        WorksetDistribution::Uniform { min: 0.9, max: 1.1 },
        0.12,
    );
    constant(built, "static parameters are valid")
}

/// Socket communication: network-bandwidth bound — the worst contention.
pub fn network_intensive() -> FunctionModel {
    let built = FunctionModel::new(
        "socket-comm",
        ResourceDimension::Network,
        true,
        LatencyParams {
            base_ms: 160.0,
            serial_fraction: 0.70,
            batch_overhead: 0.3,
        },
        WorksetDistribution::Uniform { min: 0.9, max: 1.1 },
        0.10,
    );
    constant(built, "static parameters are valid")
}

/// All four microbenchmark functions in the order Figure 1c plots them
/// (CPU, Memory, IO, Network).
pub fn all() -> Vec<FunctionModel> {
    vec![
        cpu_intensive(),
        memory_intensive(),
        io_intensive(),
        network_intensive(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_simcore::interference::InterferenceModel;
    use janus_simcore::resources::Millicores;

    #[test]
    fn four_functions_cover_four_dimensions() {
        let fns = all();
        assert_eq!(fns.len(), 4);
        let dims: std::collections::HashSet<_> = fns.iter().map(|f| f.dominant()).collect();
        assert_eq!(
            dims.len(),
            4,
            "each microbenchmark stresses a distinct dimension"
        );
    }

    #[test]
    fn colocation_slowdown_matches_figure_1c_ordering() {
        let intf = InterferenceModel::paper_calibrated();
        let mc = Millicores::new(1000);
        let slowdown = |f: &FunctionModel| {
            let alone = f.execution_time(mc, 1, 1.0, 1, &intf).as_millis();
            let crowded = f.execution_time(mc, 1, 1.0, 6, &intf).as_millis();
            crowded / alone
        };
        let cpu = slowdown(&cpu_intensive());
        let mem = slowdown(&memory_intensive());
        let io = slowdown(&io_intensive());
        let net = slowdown(&network_intensive());
        assert!(
            net > mem && mem > io && io > cpu,
            "net {net}, mem {mem}, io {io}, cpu {cpu}"
        );
        assert!(net > 7.0, "network-bound slowdown ~8.1x, got {net}");
        assert!(cpu < 2.5, "cpu-bound slowdown mild, got {cpu}");
    }
}
