//! # janus-simcore
//!
//! Discrete-event simulation substrate used by the Janus reproduction in place
//! of the paper's Fission-on-Kubernetes testbed.
//!
//! The paper's contribution (the profiler / synthesizer / adapter control
//! loop) only observes *function execution times* and only actuates two knobs:
//! the CPU allocation of a function instance (millicores) and the batch size.
//! This crate provides a platform that exposes exactly those observables and
//! knobs on top of a deterministic, seedable discrete-event engine:
//!
//! * [`time`] — simulated clock ([`SimTime`]) and durations ([`SimDuration`]),
//!   millisecond-granular like the paper's hint tables.
//! * [`resources`] — the [`Millicores`] resource knob (1000–3000 mc in the
//!   paper) and allocation ranges.
//! * [`event`] / [`engine`] — a binary-heap event queue and simulation driver.
//! * [`node`], [`pod`], [`cluster`] — worker VMs, function instances and
//!   placement, mirroring Fission pods on Kubernetes nodes.
//! * [`function`] — [`FunctionId`], a function name resolved once per run,
//!   which the pool and the cluster index their per-function state by.
//! * [`pool`] — a warm-pool manager modelled on the Fission PoolManager
//!   executor (cold-start avoidance).
//! * [`interference`] — co-location performance-interference model used to
//!   reproduce Figure 1c and the runtime-dynamics experiments.
//! * [`stats`] — percentile / CDF utilities shared by the profiler and the
//!   evaluation harness.
//! * [`rng`] — deterministic random-number helpers (log-normal, Zipf,
//!   truncated ranges) so every experiment is reproducible from a seed.
//! * [`metrics`] — counters and sample recorders with pre-interned handles
//!   so per-event recording pays no name lookup.
//! * [`registry`] — the generic name-keyed [`Registry`] behind every open
//!   extension point of the workspace (policies, scenarios, faults, …).
//! * [`idmap`] — [`IdMap`] / [`IdSet`], hash tables with a one-multiply
//!   hasher for the simulator-assigned pod and request ids every function
//!   invocation looks up.
//! * [`parallel`] — an order-preserving parallel [`parallel::map`] on
//!   scoped threads for the sweep driver's stripes.
//!
//! Everything here is deliberately independent of Janus itself so that the
//! baselines (ORION, GrandSLAM, …) run on the identical substrate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod engine;
pub mod error;
pub mod event;
pub mod function;
pub mod idmap;
pub mod interference;
pub mod metrics;
pub mod node;
pub mod parallel;
pub mod pod;
pub mod pool;
pub mod registry;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;

pub use cluster::{Cluster, ClusterConfig, NodeState, PlacementPolicy};
pub use engine::{Engine, EngineConfig};
pub use error::SimError;
pub use event::{EventQueue, ScheduledEvent};
pub use function::FunctionId;
pub use idmap::{IdMap, IdSet};
pub use interference::{InterferenceModel, ResourceDimension};
pub use metrics::{CounterHandle, MetricsRegistry, MetricsSnapshot, StreamingHandle};
pub use node::{Node, NodeId};
pub use pod::{Pod, PodId, PodState};
pub use pool::{PoolConfig, PoolManager};
pub use registry::Registry;
pub use resources::{CoreGrid, Millicores};
pub use rng::SimRng;
pub use stats::{percentile, Cdf, RunningStats, StreamingSummary, Summary};
pub use time::{SimDuration, SimTime};

/// Result alias used across the simulator substrate.
pub type SimResult<T> = Result<T, SimError>;
