//! The experiment layer: one runner per table / figure of the paper's
//! evaluation, unified behind a declarative API.
//!
//! Every runner returns a plain-data result struct whose `Display`
//! implementation prints the same rows / series the paper reports and whose
//! [`ToJson`] view writes the machine-readable artefact. Three surfaces sit
//! on top:
//!
//! * [`api`] — the [`Experiment`] row and the open [`ExperimentRegistry`]
//!   (every runner below is a registered built-in, runnable by name via
//!   `janus run <name>`);
//! * [`spec`] — the serializable [`SweepSpec`]/[`SessionSpec`] data model
//!   (`janus sweep <spec.json>` describes a whole evaluation grid as JSON);
//! * [`sweep`] — the parallel [`run_sweep`] driver executing those
//!   grids with per-worker arena/metrics reuse.
//!
//! The experiment-to-module mapping is documented in `DESIGN.md` (§3).

pub mod api;
pub mod capacity_sweep;
pub mod chaos_resilience;
pub mod flash_scale;
pub mod metrics;
pub mod motivation;
pub mod overall;
pub mod report_json;
pub mod results_report;
pub mod scenario_sweep;
pub mod slo_sweep;
pub mod spec;
pub mod sweep;
pub mod synthesis;

pub use api::{
    Experiment, ExperimentCtx, ExperimentOutput, ExperimentRegistry, ExperimentResult, Scale,
    TraceSink,
};
pub use capacity_sweep::{CapacityCell, CapacitySweepResult};
pub use chaos_resilience::{ChaosCell, ChaosResilienceResult};
pub use flash_scale::{FlashScaleConfig, FlashScaleResult};
pub use metrics::Fig7Result;
pub use motivation::{fig1c_interference, Fig1aResult, Fig1bResult, Fig1cResult, Fig2Result};
pub use overall::{OverallResult, TABLE1_POLICIES};
pub use report_json::ToJson;
pub use results_report::{ResultsReport, ResultsRow};
pub use scenario_sweep::ScenarioSweepResult;
pub use slo_sweep::Fig9Result;
pub use spec::{SessionSpec, SweepSpec};
pub use sweep::{
    rate_per_sec, run_sweep, run_sweep_stored, PolicyCell, StoreMode, SweepPoint, SweepResult,
    RESULTS_EPOCH,
};
pub use synthesis::{Fig6Result, Fig8Result, OverheadResult, Table2Result};
