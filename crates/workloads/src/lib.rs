//! # janus-workloads
//!
//! Workload substrate: analytic models of the serverless functions and
//! workflows used in the paper's evaluation, replacing the PyTorch /
//! HuggingFace / ffmpeg functions the authors deployed on Fission.
//!
//! The paper uses its functions purely as *latency generators* whose execution
//! time depends on
//!
//! 1. the CPU allocation (millicores) — sub-linear speedup because parts of
//!    every function are non-parallelisable (§V-D: "diminishing returns on
//!    execution time despite the addition of more resources"),
//! 2. the input working set (number of objects per image, words per question,
//!    frames per video; §II-B, Figure 1b),
//! 3. the batch size / concurrency (§V-A profiles concurrency 1–3 for IA),
//! 4. performance interference from co-located instances (§II-B, Figure 1c),
//! 5. residual run-to-run noise (heavy-tailed).
//!
//! [`FunctionModel`] composes those five factors multiplicatively:
//!
//! ```text
//! latency(k, b, w, n) = base · amdahl(k) · batch(b) · workset(w) · interf(n) · noise
//! ```
//!
//! Because the random factors (working set, noise) are independent of the
//! resource knobs, the per-function quantile at allocation `k` factorises as
//! `L(p, k) = det(k) · Q_p(random)`; this is exactly the structure the
//! profiler captures empirically and the synthesizer consumes.
//!
//! Modules:
//! * [`latency`] — the Amdahl-style resource/latency curve and batch factor.
//! * [`workingset`] — working-set (input-size) distributions per dataset.
//! * [`function`] — [`FunctionModel`] combining the above.
//! * [`workflow`] — [`Workflow`] chains, as the paper evaluates.
//! * [`apps`] — the two real-world workflows: Intelligent Assistant (IA) and
//!   Video Analyze (VA), calibrated to the paper's reported statistics.
//! * [`microbench`] — the CPU / memory / IO / network intensive functions of
//!   Figure 1c.
//! * [`request`] — per-request sampled inputs (the random factors drawn once
//!   per request so that late-binding decisions see a consistent world).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod function;
pub mod latency;
pub mod microbench;
pub mod request;
pub mod workflow;
pub mod workingset;

pub use apps::{intelligent_assistant, video_analyze, PaperApp};
pub use function::FunctionModel;
pub use latency::LatencyParams;
pub use request::{RequestInput, RequestInputGenerator};
pub use workflow::{Workflow, WorkflowError};
pub use workingset::WorksetDistribution;
