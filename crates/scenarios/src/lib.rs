//! # janus-scenarios
//!
//! Workload scenarios for the serving platform: *when* requests arrive, as a
//! first-class, pluggable axis alongside *which policy* serves them.
//!
//! The paper's evaluation (§V) drives every experiment with a constant-rate
//! Poisson open loop, while its motivation (§II-A) rests on production-trace
//! dynamics: Zipf popularity, heavy-tailed execution times, bursty diurnal
//! arrivals. This crate closes that gap:
//!
//! * [`ArrivalProcess`] — an object-safe, seed-deterministic description of
//!   an arrival process. A process hands out [`InterArrivalSampler`]s that
//!   draw inter-arrival gaps from the caller's RNG, so request generation
//!   stays reproducible bit-for-bit and the constant-rate Poisson loop is
//!   recovered as the [`PoissonArrivals`] special case.
//! * Built-in processes — [`PoissonArrivals`], [`DiurnalArrivals`]
//!   (sinusoidal rate modulation), [`BurstyArrivals`] (two-state MMPP),
//!   [`FlashCrowd`] (baseline rate plus a spike window) and [`TraceReplay`]
//!   (inter-arrival gaps lifted from a [`janus_trace::Trace`]).
//! * [`ScenarioRegistry`] — scenarios addressable by name through the
//!   generic `janus_simcore::registry::Registry`: the built-ins are
//!   pre-registered and custom processes plug in through
//!   [`ScenarioRegistry::register_fn`] without touching any `janus-*` crate.
//! * [`MergedRequestSource`] — multi-tenant serving: k per-tenant arrival
//!   streams (one lazy generator each, seeded via [`tenant_stream_seed`])
//!   merged by next-arrival time into one bounded-memory request source
//!   holding exactly one pending arrival per stream.
//!
//! Every built-in scenario built through the registry is normalized to the
//! [`ScenarioContext`]'s base arrival rate: the long-run mean rate is the
//! same across scenarios, only the *shape* of the load differs. That makes
//! scenario sweeps paired in load as well as in requests.
//!
//! [`InterArrivalSampler`]: janus_workloads::request::InterArrivalSampler

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod registry;
pub mod tenancy;

pub use arrival::{
    ArrivalProcess, BurstyArrivals, DiurnalArrivals, FlashCrowd, PoissonArrivals, TraceReplay,
};
pub use registry::{ScenarioContext, ScenarioFactory, ScenarioRegistry};
pub use tenancy::{tenant_stream_seed, MergedRequestSource};
