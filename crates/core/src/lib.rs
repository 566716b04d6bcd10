//! # janus-core
//!
//! The public facade of the Janus reproduction: *bilaterally engaged runtime
//! resource adaptation for serverless workflows*.
//!
//! Janus lets serverless developers keep their domain knowledge (workflow
//! structure, execution-time profiles, SLOs) and providers keep their runtime
//! information, bridging the gap with a compact *hints table*:
//!
//! 1. the developer-side **profiler** measures each function's execution time
//!    across CPU allocations and concurrency levels
//!    ([`janus_profiler`]),
//! 2. the developer-side **synthesizer** turns those profiles into condensed
//!    `⟨t_start, t_end, size⟩` hints (Algorithms 1 and 2,
//!    [`janus_synthesizer`]),
//! 3. the provider-side **adapter** searches the hints whenever a function of
//!    a request finishes and resizes the next function accordingly
//!    ([`janus_adapter`]).
//!
//! This crate wires the three together:
//!
//! * [`session`] — **the serving entry point**: a [`ServingSession`] builder
//!   that profiles a workflow, resolves policies by name and replays one
//!   request set under each of them, in closed- or open-loop, returning a
//!   normalized [`SessionReport`].
//! * [`registry`] — the open [`PolicyRegistry`]: the paper's seven policies
//!   as pre-registered [`PolicyFactory`]s, plus registration of custom
//!   policies from any downstream crate.
//! * [`scenarios`] (re-exported `janus-scenarios`) — the workload axis:
//!   pluggable arrival processes (`poisson`, `diurnal`, `bursty`,
//!   `flash-crowd`, `trace-replay`) behind an open `ScenarioRegistry`,
//!   selected per session by name with `.scenario(..)` and swept
//!   against the policy grid by [`mod@experiments::scenario_sweep`].
//! * [`JanusFactory::synthesize`](registry::JanusFactory::synthesize) — the
//!   developer-to-provider handoff (synthesize → deploy adapter) for one
//!   workflow profile; every Janus policy is built through it.
//! * [`JanusPolicy`] — the resulting late-binding
//!   [`SizingPolicy`](janus_platform::policy::SizingPolicy), runnable on the
//!   same platform executor as every baseline.
//! * [`experiments`] — the declarative experiment layer: plain
//!   [`Experiment`](experiments::Experiment) rows in an open
//!   [`ExperimentRegistry`](experiments::ExperimentRegistry) (one built-in
//!   per table/figure of the paper's evaluation, run by name through the
//!   `janus` CLI), plus [`SweepSpec`](experiments::SweepSpec) — a
//!   serializable grid of policies × scenarios × loads × seeds × capacity
//!   configs executed in parallel by
//!   [`run_sweep`](experiments::run_sweep). See `DESIGN.md` §3.
//!
//! ## Quickstart
//!
//! ```
//! use janus_core::session::{Load, ServingSession};
//! use janus_workloads::apps::PaperApp;
//!
//! // Serve the Intelligent Assistant under its paper SLO, comparing the
//! // paper's system against GrandSLAM on an identical request set.
//! let report = ServingSession::builder()
//!     .app(PaperApp::IntelligentAssistant)
//!     .concurrency(1)
//!     .policy("Janus")
//!     .policy("GrandSLAM")
//!     .load(Load::Closed { requests: 40 })
//!     .quick() // test-scale profiling; drop for paper scale
//!     .run()
//!     .expect("session runs");
//! assert!(report.normalized_cpu("GrandSLAM", "Janus").unwrap() > 1.0);
//! assert!(report.slo_attainment("Janus").unwrap() >= 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod policy;
pub mod registry;
pub mod session;

pub use policy::JanusPolicy;
pub use registry::{BuiltPolicy, PolicyContext, PolicyFactory, PolicyRegistry};
pub use session::{Load, PolicyReport, ServingSession, SessionReport};

// Re-export the component crates under one roof for downstream users.
pub use janus_adapter as adapter;
pub use janus_baselines as baselines;
pub use janus_platform as platform;
pub use janus_profiler as profiler;
pub use janus_scenarios as scenarios;
pub use janus_simcore as simcore;
pub use janus_synthesizer as synthesizer;
pub use janus_trace as trace;
pub use janus_workloads as workloads;
