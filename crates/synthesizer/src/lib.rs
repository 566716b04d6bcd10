//! # janus-synthesizer
//!
//! The developer-side **synthesizer** of Janus (§III-C, §IV).
//!
//! The synthesizer turns the profiler's execution-time distributions into a
//! compact *hints table* that the provider-side adapter can search at runtime
//! in microseconds. It implements the two offline algorithms of the paper:
//!
//! * **Hints generation (Algorithm 1)** — for every candidate time budget `t`
//!   in `[Tmin, Tmax]` (1 ms granularity), solve the constrained
//!   minimisation of Eq. 4–8: choose a percentile `p` for the head function
//!   and CPU allocations for all functions so that (5) the sub-workflow's
//!   profiled latency fits the budget, (6) the head's potential timeout
//!   `D(p, k₁)` is covered by the downstream resilience `Σ R_i(99, k_i)`, and
//!   the expected resource consumption `W·k₁ + p·Σk_i + (1−p)(N−1)·Kmax` is
//!   minimal. See [`generation`].
//! * **Hints condensing (Algorithm 2)** — fuse adjacent budgets that share
//!   the same head-function size into `⟨t_start, t_end, k⟩` rows and drop the
//!   non-head fields (Insights 5–6). See [`mod@condense`].
//!
//! The [`Synthesizer`] front-end produces a [`HintsBundle`]: one condensed
//! table per sub-workflow suffix (the table the adapter consults after the
//! `i`-th function finishes), for a given weight and concurrency. The three
//! late-binding variants evaluated in the paper map to
//! [`ExplorationDepth`]: `Janus⁻` (no percentile exploration), `Janus`
//! (head only) and `Janus⁺` (head and next-to-head).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod condense;
pub mod generation;
pub mod hints;
pub mod json;
pub mod synthesizer;

pub use condense::condense;
pub use generation::{GenerationConfig, HintGenerator, RawHint, MIN_BUDGET_STEP_MS};
pub use hints::{CondensedHint, HintsBundle, HintsTable, LookupOutcome};
pub use synthesizer::{ExplorationDepth, SynthesisReport, Synthesizer, SynthesizerConfig};
