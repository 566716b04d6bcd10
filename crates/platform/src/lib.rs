//! # janus-platform
//!
//! The serverless workflow *serving* platform of the reproduction: the piece
//! that corresponds to the Fission deployment plus the lightweight Flask
//! server the paper's prototype uses to trace requests and apply adaptation
//! decisions.
//!
//! The platform is deliberately **policy-agnostic**: every sizing approach
//! evaluated in the paper — the early-binding baselines (ORION, GrandSLAM,
//! GrandSLAM⁺), the late-binding variants (Janus, Janus⁻, Janus⁺), and the
//! Optimal oracle — implements the same [`policy::SizingPolicy`] trait and is
//! executed by the same machinery, so resource/latency comparisons are
//! apples-to-apples:
//!
//! * [`policy`] — the [`policy::SizingPolicy`] trait and the
//!   per-request [`policy::RequestContext`].
//! * [`executor`] — the closed-loop executor used by the evaluation: replays
//!   a fixed set of [`RequestInput`](janus_workloads::request::RequestInput)s
//!   through the workflow on top of the pool manager and cluster, invoking
//!   the policy before every function start.
//! * [`openloop`] — an open-loop, event-driven serving simulation with
//!   Poisson arrivals and horizontal scaling, exercising the discrete-event
//!   engine (used for the queueing/extension experiments).
//! * [`outcome`] — per-request outcomes and aggregated serving reports.
//! * [`metrics`] — the pre-interned [`metrics::ServingMetrics`] handle
//!   bundle both serving loops flush their per-run tallies into.
//! * [`capacity`] — elastic capacity: the [`capacity::AutoscalerPolicy`] and
//!   [`capacity::AdmissionPolicy`] traits, their built-ins and the
//!   name-addressable registries the open loop's capacity tick drives.
//!
//! Both loops take one config type ([`ExecutorConfig`]; [`OpenLoopConfig`]
//! is an alias of it) and size, place and run every function through one
//! crate-private per-function step (`fleet.rs`): sizing, pod acquisition,
//! placement with the overcommit fallback, execution time, release and
//! policy feedback are implemented once. Each loop keeps only its own
//! driver: the closed loop its clock and running budget, the open loop its
//! events, in-flight table, admission, faults and capacity tick.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Offer one lifecycle record to an optional attached observer. A macro
/// (not a function) so the disabled path is statically zero-cost: with no
/// observer the record expression is never evaluated — no allocation, no
/// virtual call, nothing but a branch on an `Option` discriminant. Both
/// serving loops use it; textual macro scoping makes it visible to the
/// modules declared below.
macro_rules! emit {
    ($observer:expr, $at:expr, $kind:expr) => {
        if let Some(o) = $observer.as_deref_mut() {
            o.record(&Record {
                at: $at,
                kind: $kind,
            });
        }
    };
}

pub mod capacity;
pub mod executor;
mod fleet;
pub mod metrics;
pub mod openloop;
pub mod outcome;
pub mod policy;

pub use capacity::{
    AdmissionPolicy, AdmissionRegistry, AutoscalerPolicy, AutoscalerRegistry, CapacityContext,
    ScalingAction, ScalingObservation,
};
pub use executor::{ClosedLoopExecutor, ExecutorConfig};
pub use metrics::ServingMetrics;
pub use openloop::{CapacityControls, OpenLoopArena, OpenLoopConfig, OpenLoopSimulation};
pub use outcome::{
    CapacityReport, RequestDisposition, RequestOutcome, ScalingEvent, ServingReport,
};
pub use policy::{FixedSizingPolicy, RequestContext, SizingPolicy};
