//! Layer cells: one layer's operation timed alone, in the shape a workload
//! gives it (its queue depth, node count, hints bundle). Each cell runs a
//! fixed number of operations per repetition and reports the median over
//! repetitions.

use janus_core::adapter::{Adapter, AdapterConfig};
use janus_core::platform::metrics::ServingMetrics;
use janus_core::platform::outcome::{RequestDisposition, RequestOutcome};
use janus_core::simcore::cluster::{Cluster, ClusterConfig, PlacementPolicy};
use janus_core::simcore::engine::{Engine, EngineConfig};
use janus_core::simcore::metrics::MetricsRegistry;
use janus_core::simcore::pod::PodId;
use janus_core::simcore::pool::{PoolConfig, PoolManager};
use janus_core::simcore::resources::Millicores;
use janus_core::simcore::rng::SimRng;
use janus_core::simcore::time::{SimDuration, SimTime};
use janus_core::synthesizer::HintsBundle;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const FUNCTIONS: [&str; 3] = ["asr", "qa", "tts"];

/// Median over repetitions of the wall time of `rep` divided by `ops`.
fn median_ns_per_op(ops: usize, mut rep: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            rep();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::median(&mut samples)
}

/// One pop and one push on an event queue held at `depth` pending events
/// (the hold model: every popped event schedules a successor).
pub fn engine_push_pop_ns(depth: usize) -> f64 {
    const OPS: usize = 400_000;
    let depth = depth.max(1);
    median_ns_per_op(OPS, || {
        let config = EngineConfig {
            max_events: None,
            horizon: None,
        };
        let mut engine: Engine<u64> = Engine::with_capacity(config, depth + 1);
        let mut rng = SimRng::seed_from_u64(0xE4E4);
        for i in 0..depth {
            engine.schedule_in(
                SimDuration::from_millis(rng.uniform_range(0.0, 1000.0)),
                i as u64,
            );
        }
        for _ in 0..OPS {
            let event = engine.next_event().expect("the queue is never empty");
            let gap = SimDuration::from_millis(rng.uniform_range(0.0, 1000.0));
            engine.schedule_in(gap, black_box(event.payload));
        }
        black_box(engine.pending());
    })
}

/// One placement and one removal on a spread fleet of `nodes` 52-core
/// nodes, each already holding eight 1-core pods.
pub fn cluster_place_remove_ns(nodes: usize) -> f64 {
    const OPS: usize = 20_000;
    let config = ClusterConfig {
        nodes: nodes.max(1),
        node_capacity: Millicores::from_cores(52),
        placement: PlacementPolicy::Spread,
        zones: 1,
    };
    median_ns_per_op(OPS, || {
        let mut cluster = Cluster::new(&config).expect("valid cluster config");
        let resident = config.nodes * 8;
        for i in 0..resident {
            cluster
                .place(PodId(i as u64), FUNCTIONS[i % 3], Millicores::new(1000))
                .expect("resident pods fit");
        }
        for i in 0..OPS {
            let pod = PodId((resident + i) as u64);
            cluster
                .place(pod, FUNCTIONS[i % 3], Millicores::new(1000))
                .expect("a free slot exists");
            cluster.remove(pod).expect("the pod was just placed");
        }
        black_box(cluster.total_allocated());
    })
}

/// One warm-pool acquisition and release at the default pool size.
pub fn pool_acquire_release_ns() -> f64 {
    const OPS: usize = 200_000;
    median_ns_per_op(OPS, || {
        let mut pool = PoolManager::new(PoolConfig::default());
        let mut now = SimTime::ZERO;
        for i in 0..OPS {
            let acquired = pool.acquire(FUNCTIONS[i % 3], Millicores::new(1000), now);
            now += SimDuration::from_millis(1.0);
            pool.release(black_box(acquired.pod), now);
        }
        black_box(pool.warm_hits());
    })
}

/// Recording one served three-function outcome into the serving metrics.
pub fn metrics_record_ns() -> f64 {
    const OPS: usize = 200_000;
    let registry = MetricsRegistry::new();
    let metrics = ServingMetrics::intern(&registry);
    let outcome = RequestOutcome {
        request_id: 1,
        disposition: RequestDisposition::Served,
        e2e: SimDuration::from_millis(2500.0),
        allocations: vec![Millicores::new(2000); 3],
        function_latencies: vec![SimDuration::from_millis(800.0); 3],
        slo_met: true,
        adaptation_misses: 0,
    };
    median_ns_per_op(OPS, || {
        registry.reset();
        for _ in 0..OPS {
            black_box(&outcome).record_into(&metrics);
        }
    })
}

/// Adapter decisions on `bundle` for remaining budgets spread over 30% to
/// 100% of the SLO: (ns per decision, share of decisions served from the
/// hints table).
pub fn adapter_decide(bundle: &HintsBundle, stages: usize, slo: SimDuration) -> (f64, f64) {
    const OPS: usize = 200_000;
    let mut hit_rate = 0.0;
    let ns = median_ns_per_op(OPS, || {
        let mut adapter = Adapter::new(bundle.clone(), AdapterConfig::default());
        for i in 0..OPS {
            let share = 0.3 + 0.7 * ((i % 1000) as f64 / 1000.0);
            let budget = SimDuration::from_millis(slo.as_millis() * share);
            black_box(adapter.decide(i % stages.max(1), budget));
        }
        hit_rate = adapter.hit_rate();
    });
    (ns, hit_rate)
}
