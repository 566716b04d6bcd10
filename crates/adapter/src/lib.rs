//! # janus-adapter
//!
//! The provider-side **adapter** of Janus (§III-D).
//!
//! The adapter runs online on the serverless platform. When a function of a
//! workflow request finishes, the platform derives the remaining time budget
//! for the rest of the workflow (SLO minus elapsed time); the adapter
//!
//! 1. searches the condensed hints table for the remaining sub-workflow and
//!    returns the head function's new size ([`adapter::Adapter::decide`]);
//!    a table miss scales the remaining functions to `Kmax` to protect the
//!    SLO,
//! 2. counts hits and misses and, when the miss rate exceeds a threshold,
//!    notifies the developer side so profiling/synthesis can be re-triggered
//!    asynchronously ([`supervisor`], [`feedback`]).
//!
//! The decision path is a binary search over ≲150 rows plus a few counters —
//! this is what keeps the online overhead under the 3 ms the paper reports in
//! §V-H.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod feedback;
pub mod supervisor;

pub use adapter::{AdaptationDecision, Adapter, AdapterConfig, DecisionSource};
pub use feedback::{FeedbackChannel, FeedbackEvent};
pub use supervisor::{MissRateSupervisor, SupervisorConfig};
