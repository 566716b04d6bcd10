//! The declarative experiment API: [`Experiment`], [`ExperimentCtx`],
//! [`ExperimentOutput`] and the open [`ExperimentRegistry`].
//!
//! Experiments sit behind the same generic [`Registry`] as policies,
//! scenarios, capacity controllers, faults and observers. An experiment is a
//! row: a name, a one-line description, whether it writes a trace, and a
//! runner that turns an [`ExperimentCtx`] (the scale and seed knobs every
//! runner shares) into an [`ExperimentOutput`] — a bundle of result structs
//! that are simultaneously human-readable (`Display`) and machine-readable
//! ([`ToJson`]). The paper's figures and tables and the scenario, capacity,
//! chaos and flash-crowd sweeps are the pre-registered built-ins; downstream
//! crates add their own rows with `ExperimentRegistry::register` and run
//! them through the registry without touching any `janus-*` crate.
//!
//! ```
//! use janus_core::experiments::{ExperimentCtx, ExperimentRegistry, Scale};
//!
//! let registry = ExperimentRegistry::with_builtins();
//! assert!(registry.names().contains(&"fig1c"));
//! let output = registry
//!     .lookup("fig1c")
//!     .and_then(|fig1c| (fig1c.run)(&ExperimentCtx::new(Scale::Quick)))
//!     .expect("fig1c runs");
//! assert!(output.summary().contains("Figure 1c"));
//! assert!(output.to_json().get("experiment").is_some());
//! ```

use crate::experiments::{SessionSpec, SweepResult, SweepSpec, ToJson};
use crate::session::{Load, ServingSession, ServingSessionBuilder};
use janus_json::Value;
use janus_simcore::registry::{Entry, Registry};
use janus_workloads::apps::PaperApp;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Shared experiment scale. Every runner interprets it the same way: `Paper`
/// reproduces the paper's sample counts, `Quick` preserves every code path
/// at a fraction of the cost (smoke runs, CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-like scale: 1000 requests, 1000 profile samples, 1 ms sweep.
    Paper,
    /// Reduced scale for smoke runs and CI (`--quick`).
    Quick,
}

impl Scale {
    /// Profile samples per grid point at this scale.
    pub(crate) fn profile_samples(self) -> usize {
        match self {
            Scale::Paper => 1000,
            Scale::Quick => 300,
        }
    }

    /// Trace invocations for the Figure 1a analysis at this scale.
    pub(crate) fn trace_invocations(self) -> usize {
        match self {
            Scale::Paper => 50_000,
            Scale::Quick => 15_000,
        }
    }

    /// Figure 2 request-sample size at this scale.
    pub(crate) fn fig2_requests(self) -> usize {
        match self {
            Scale::Paper => 50,
            Scale::Quick => 25,
        }
    }
}

/// A shared, thread-safe accumulator for JSONL trace lines. `janus run
/// <experiment> --trace PATH` hands one of these to the experiment through
/// the [`ExperimentCtx`]; trace-capable experiments append each observed
/// session's trace and the CLI writes the collected lines to `PATH`.
/// Cloning shares the underlying buffer.
#[derive(Clone, Default)]
pub struct TraceSink(Arc<Mutex<String>>);

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    // The buffer is a plain String, valid at every intermediate state, so a
    // panic on another thread cannot leave it torn: recover the guard from a
    // poisoned lock instead of propagating the panic into trace writing.
    fn lock(&self) -> std::sync::MutexGuard<'_, String> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Append a block of JSONL lines, ensuring it stays newline-terminated.
    pub fn append(&self, lines: &str) {
        if lines.is_empty() {
            return;
        }
        let mut buf = self.lock();
        buf.push_str(lines);
        if !lines.ends_with('\n') {
            buf.push('\n');
        }
    }

    /// Take the collected lines out, leaving the sink empty.
    pub fn take(&self) -> String {
        std::mem::take(&mut *self.lock())
    }

    /// True while nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self.0.lock().map(|b| b.len()).unwrap_or(0);
        f.debug_struct("TraceSink").field("bytes", &len).finish()
    }
}

/// Everything an experiment may consult when running: the scale, an
/// optional seed override, and the optional trace sink. The per-config
/// helpers mirror the ones the bench flags used to provide, with the
/// override already applied, so experiments stay one-liners.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Experiment scale.
    pub scale: Scale,
    /// Seed override (`--seed N`); `None` keeps each experiment's default.
    pub seed: Option<u64>,
    /// Where trace-capable experiments append their JSONL trace lines
    /// (`--trace PATH`). A sink attaches the `flight-recorder` observer;
    /// `None` leaves observation off (the zero-cost default).
    pub trace: Option<TraceSink>,
}

impl ExperimentCtx {
    /// A context at the given scale with no seed override.
    pub fn new(scale: Scale) -> Self {
        ExperimentCtx {
            scale,
            seed: None,
            trace: None,
        }
    }

    /// Apply a seed override.
    pub fn with_seed(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a trace sink (implies the `flight-recorder` observer).
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The observer trace-capable experiments should attach:
    /// `flight-recorder` when a trace sink is present (a trace needs an
    /// observer to produce lines), otherwise none.
    pub(crate) fn observer_name(&self) -> Option<&str> {
        self.trace.as_ref().map(|_| "flight-recorder")
    }

    /// Append a session trace to the sink, if one is attached. `qualifier`
    /// distinguishes grid cells that serve the same policies (the trace's
    /// `policy` field becomes `<policy>@<qualifier>`); pass `None` for
    /// single-session experiments.
    fn append_trace(&self, trace: &str, qualifier: Option<&str>) -> Result<(), String> {
        let Some(sink) = &self.trace else {
            return Ok(());
        };
        match qualifier {
            Some(suffix) => sink.append(&janus_observe::qualify_policy(trace, suffix)?),
            None => sink.append(trace),
        }
        Ok(())
    }

    /// The experiment seed: the override when given, otherwise the
    /// experiment's own default (each figure has its own, so figures stay
    /// independent).
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The closed-loop session of the paper's paired comparisons (Table I,
    /// Figures 4–6 and 9) for an application at this scale, under its
    /// default SLO, seed override applied (default 7). Paper scale replays
    /// 1000 requests with 1000 profile samples and a 1 ms budget step; quick
    /// scale 200 requests, 300 samples and a 5 ms step. The caller adds the
    /// policies.
    pub fn session(&self, app: PaperApp, concurrency: u32) -> ServingSessionBuilder {
        let (requests, samples_per_point, budget_step_ms) = match self.scale {
            Scale::Paper => (1000, 1000, 1.0),
            Scale::Quick => (200, 300, 5.0),
        };
        ServingSession::builder()
            .app(app)
            .concurrency(concurrency)
            .load(Load::Closed { requests })
            .seed(self.seed_or(7))
            .samples_per_point(samples_per_point)
            .budget_step_ms(budget_step_ms)
    }

    /// A grid experiment's [`SweepSpec`] at this scale, built by its
    /// `paper` or `quick` constructor, with the seed override (when given)
    /// as its whole `seeds` axis.
    pub(crate) fn sweep_spec(
        &self,
        app: PaperApp,
        paper: fn(PaperApp) -> SweepSpec,
        quick: fn(PaperApp) -> SweepSpec,
    ) -> SweepSpec {
        let mut spec = match self.scale {
            Scale::Paper => paper(app),
            Scale::Quick => quick(app),
        };
        if let Some(seed) = self.seed {
            spec.seeds = vec![seed];
        }
        spec
    }

    /// Append every live point's trace to the sink, in grid order, each
    /// qualified with the grid coordinates `qualifier` names for its point
    /// (the points of one grid serve the same policies).
    pub(crate) fn append_sweep_traces(
        &self,
        sweep: &SweepResult,
        qualifier: impl Fn(&SessionSpec) -> String,
    ) -> Result<(), String> {
        for point in &sweep.points {
            if let Some(trace) = point.live_report().and_then(|r| r.trace()) {
                self.append_trace(&trace, Some(&qualifier(&point.session)))?;
            }
        }
        Ok(())
    }
}

/// What every experiment result already is: a human-readable table
/// (`Display`) that is also a machine-readable document ([`ToJson`]).
/// Blanket-implemented, so the existing result structs qualify unchanged.
pub trait ExperimentResult: ToJson + fmt::Display + Send {}

impl<T: ToJson + fmt::Display + Send> ExperimentResult for T {}

/// The outcome of one experiment run: one or more result parts, each a
/// [`ToJson`] + `Display` bundle with an optional heading (multi-part
/// experiments like Figure 4 run one comparison per setup).
pub struct ExperimentOutput {
    parts: Vec<(String, Box<dyn ExperimentResult>)>,
}

impl ExperimentOutput {
    /// An output holding exactly one unlabelled result.
    pub fn single(result: impl ExperimentResult + 'static) -> Self {
        ExperimentOutput {
            parts: vec![(String::new(), Box::new(result))],
        }
    }

    /// An empty output, to be filled with [`push`](Self::push).
    pub fn new() -> Self {
        ExperimentOutput { parts: Vec::new() }
    }

    /// Append a labelled result part.
    pub fn push(&mut self, heading: impl Into<String>, result: impl ExperimentResult + 'static) {
        self.parts.push((heading.into(), Box::new(result)));
    }

    /// Number of result parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the experiment produced no parts.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The human summary: every part's `Display` output, multi-part outputs
    /// separated by their headings.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (heading, result) in &self.parts {
            if !heading.is_empty() {
                out.push_str(&format!("## {heading}\n"));
            }
            let rendered = result.to_string();
            out.push_str(&rendered);
            if !rendered.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// The machine view: a single part's document verbatim, or an array of
    /// part documents for multi-part experiments.
    pub fn to_json(&self) -> Value {
        match self.parts.as_slice() {
            [(_, only)] => only.to_json(),
            parts => Value::Arr(parts.iter().map(|(_, r)| r.to_json()).collect()),
        }
    }
}

impl Default for ExperimentOutput {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ExperimentOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentOutput")
            .field("parts", &self.parts.len())
            .finish()
    }
}

/// A runnable experiment: a name to address it by, a one-line description
/// for discoverability, whether it writes a trace, and a runner from context
/// to output. The built-ins wrap the paper's figure/table runners and the
/// sweep drivers.
#[derive(Debug)]
pub struct Experiment {
    /// The name the experiment is registered and invoked under
    /// (`janus run <name>`).
    pub name: &'static str,
    /// One-line human description, surfaced by `janus list`.
    pub describe: &'static str,
    /// Whether the experiment appends session traces to the context's
    /// [`TraceSink`] (`janus run <name> --trace PATH`). The CLI refuses
    /// `--trace` up front for experiments that do not.
    pub traces: bool,
    /// Run the experiment.
    pub run: fn(&ExperimentCtx) -> Result<ExperimentOutput, String>,
}

/// The open experiment registry (see [`janus_simcore::registry`]): ordered,
/// open for registration, resolved by name. `janus run <name>` is
/// `(registry.lookup(name)?.run)(&ctx)`.
pub type ExperimentRegistry = Registry<Experiment>;

impl Entry for Experiment {
    const NOUN: &'static str = "experiment";

    fn key(&self) -> &str {
        self.name
    }

    /// Every experiment of the evaluation, in paper order: the motivation
    /// figures, the overall comparison tables/figures, the synthesis
    /// studies and the scenario, capacity, chaos and flash-crowd sweeps.
    fn builtins(registry: &mut ExperimentRegistry) {
        use crate::experiments::{capacity_sweep, chaos_resilience, flash_scale, metrics};
        use crate::experiments::{motivation, overall, scenario_sweep, slo_sweep, synthesis};
        let builtins: [Experiment; 17] = [
            Experiment {
                name: "fig1a",
                describe: "Figure 1a: slack CDF of function invocations in an Azure-like trace",
                traces: false,
                run: motivation::run_fig1a,
            },
            Experiment {
                name: "fig1b",
                describe: "Figure 1b: function latency variance caused by varying working sets",
                traces: false,
                run: motivation::run_fig1b,
            },
            Experiment {
                name: "fig1c",
                describe:
                    "Figure 1c: performance interference from co-locating homogeneous functions",
                traces: false,
                run: motivation::run_fig1c,
            },
            Experiment {
                name: "fig2",
                describe: "Figure 2: per-request early-binding vs late-binding comparison",
                traces: false,
                run: motivation::run_fig2,
            },
            Experiment {
                name: "table1",
                describe: "Table I: overall resource reduction of Janus vs baselines for IA and VA",
                traces: false,
                run: overall::run_table1,
            },
            Experiment {
                name: "fig4",
                describe: "Figure 4: end-to-end latency CDFs of IA (concurrency 1-3) and VA",
                traces: false,
                run: overall::run_fig4,
            },
            Experiment {
                name: "fig5",
                describe:
                    "Figure 5: resource consumption per policy, absolute and normalised by Optimal",
                traces: false,
                run: overall::run_fig5,
            },
            Experiment {
                name: "fig6",
                describe:
                    "Figure 6: resource and synthesis-time cost of Janus vs Janus+ across SLOs",
                traces: false,
                run: synthesis::run_fig6,
            },
            Experiment {
                name: "fig7",
                describe: "Figure 7: timeout and resilience of the TS function",
                traces: false,
                run: metrics::run_fig7,
            },
            Experiment {
                name: "fig8",
                describe: "Figure 8: number of condensed hints for IA and VA under different weights",
                traces: false,
                run: synthesis::run_fig8,
            },
            Experiment {
                name: "fig9",
                describe: "Figure 9: resource consumption (normalised by Optimal) under varying SLOs",
                traces: false,
                run: slo_sweep::run_fig9,
            },
            Experiment {
                name: "table2",
                describe: "Table II: head-function allocation and percentile under weights 1 and 3",
                traces: false,
                run: synthesis::run_table2,
            },
            Experiment {
                name: "overhead",
                describe:
                    "System overhead (§V-H): online adaptation latency and hints memory footprint",
                traces: false,
                run: synthesis::run_overhead,
            },
            Experiment {
                name: "scenarios",
                describe: "Scenario sweep: every policy under every built-in load shape",
                traces: false,
                run: scenario_sweep::run_scenarios,
            },
            Experiment {
                name: "capacity",
                describe: "Capacity sweep: every arrival scenario under every capacity regime",
                traces: true,
                run: capacity_sweep::run_capacity,
            },
            Experiment {
                name: "chaos_resilience",
                describe: "Chaos resilience: capacity regimes under a mid-flash-crowd zone outage",
                traces: true,
                run: chaos_resilience::run_chaos_resilience,
            },
            Experiment {
                name: "flash_scale",
                describe: "Flash crowd at 100M requests: bounded-memory streaming arrivals through capacity control",
                traces: false,
                run: flash_scale::run_flash_scale,
            },
        ];
        for experiment in builtins {
            registry.register(Arc::new(experiment));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_every_retired_binary() {
        let registry = ExperimentRegistry::with_builtins();
        // Registration order is the `janus all` order.
        let names = [
            "fig1a",
            "fig1b",
            "fig1c",
            "fig2",
            "table1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "table2",
            "overhead",
            "scenarios",
            "capacity",
            "chaos_resilience",
            "flash_scale",
        ];
        assert_eq!(registry.names(), names);
        for name in names {
            assert!(
                registry.get(name).is_some(),
                "experiment `{name}` is not registered"
            );
            registry.ensure_known(name).unwrap();
        }
        assert_eq!(registry.len(), 17);
        for experiment in registry.iter() {
            let name = experiment.name;
            assert!(
                !experiment.describe.is_empty(),
                "`{name}` has no description"
            );
        }
        let traced: Vec<&str> = registry
            .iter()
            .filter(|e| e.traces)
            .map(|e| e.name)
            .collect();
        assert_eq!(traced, ["capacity", "chaos_resilience"]);
    }

    #[test]
    fn unknown_names_list_the_registered_experiments() {
        let registry = ExperimentRegistry::with_builtins();
        let err = registry.ensure_known("fig99").unwrap_err();
        assert!(err.contains("unknown experiment `fig99`"), "{err}");
        assert!(err.contains("fig1a"), "{err}");
    }

    #[test]
    fn custom_experiments_register_and_replace_by_name() {
        let run = |registry: &ExperimentRegistry| {
            (registry.lookup("noop")?.run)(&ExperimentCtx::new(Scale::Quick))
        };
        let mut registry = ExperimentRegistry::new();
        registry.register(Arc::new(Experiment {
            name: "noop",
            describe: "does nothing",
            traces: false,
            run: |_ctx| {
                Ok(ExperimentOutput::single(
                    crate::experiments::fig1c_interference(),
                ))
            },
        }));
        assert_eq!(registry.names(), vec!["noop"]);
        let out = run(&registry).unwrap();
        assert_eq!(out.len(), 1);
        assert!(!out.is_empty());
        // Same-name registration replaces in place.
        registry.register(Arc::new(Experiment {
            name: "noop",
            describe: "fails",
            traces: false,
            run: |_ctx| Err("boom".into()),
        }));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.get("noop").unwrap().describe, "fails");
        assert_eq!(run(&registry).unwrap_err(), "boom");
    }

    #[test]
    fn a_trace_sink_attaches_the_flight_recorder() {
        let ctx = ExperimentCtx::new(Scale::Quick).with_seed(Some(3));
        assert_eq!(ctx.observer_name(), None);
        let traced = ctx.with_trace(TraceSink::new());
        assert_eq!(traced.observer_name(), Some("flight-recorder"));
        assert!(janus_observe::ObserverRegistry::with_builtins()
            .ensure_known("flight-recorder")
            .is_ok());
    }

    #[test]
    fn multi_part_outputs_render_headings_and_json_arrays() {
        let mut out = ExperimentOutput::new();
        out.push("part one", crate::experiments::fig1c_interference());
        out.push("part two", crate::experiments::fig1c_interference());
        let summary = out.summary();
        assert!(summary.contains("## part one"), "{summary}");
        assert!(summary.contains("## part two"), "{summary}");
        let json = out.to_json();
        assert_eq!(json.as_array().map(|a| a.len()), Some(2));
        // Single-part outputs keep the bare document (historical schema).
        let single = ExperimentOutput::single(crate::experiments::fig1c_interference());
        assert_eq!(
            single.to_json().get("experiment").and_then(|v| v.as_str()),
            Some("fig1c")
        );
    }

    #[test]
    fn ctx_applies_the_seed_override_everywhere() {
        let ctx = ExperimentCtx::new(Scale::Quick).with_seed(Some(99));
        assert_eq!(ctx.seed_or(5), 99);
        let served = ctx
            .session(PaperApp::IntelligentAssistant, 1)
            .policy("GrandSLAM")
            .load(Load::Closed { requests: 5 })
            .run()
            .unwrap();
        assert_eq!(served.seed, 99);
        use crate::experiments::{capacity_sweep, chaos_resilience, scenario_sweep};
        type SpecFn = fn(PaperApp) -> SweepSpec;
        let grids: [(SpecFn, SpecFn); 3] = [
            (scenario_sweep::paper_spec, scenario_sweep::quick_spec),
            (capacity_sweep::paper_spec, capacity_sweep::quick_spec),
            (chaos_resilience::paper_spec, chaos_resilience::quick_spec),
        ];
        for (paper, quick) in grids {
            let app = PaperApp::IntelligentAssistant;
            let expected = SweepSpec {
                seeds: vec![99],
                ..quick(app)
            };
            assert_eq!(ctx.sweep_spec(app, paper, quick), expected);
        }
        let plain = ExperimentCtx::new(Scale::Paper);
        assert_eq!(plain.seed_or(5), 5);
        assert!(plain.scale.profile_samples() > ctx.scale.profile_samples());
        assert!(plain.scale.trace_invocations() > ctx.scale.trace_invocations());
    }
}
