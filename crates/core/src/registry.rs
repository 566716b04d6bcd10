//! The open policy registry: how sizing policies are instantiated.
//!
//! The paper's thesis is that the hints interface lets *any* provider-side
//! policy plug into *any* developer-side workflow. The registry makes the
//! reproduction's API live up to that: a policy is anything that can build a
//! [`SizingPolicy`] from a
//! [`PolicyContext`] (the workflow, its profile, the SLO, and the request
//! set), registered under a display name. The seven policies of the paper's
//! evaluation are pre-registered built-ins; downstream crates register their
//! own policies with [`PolicyRegistry::register`] (or the closure shorthand
//! [`PolicyRegistry::register_fn`]) without touching any `janus-*` crate.

use janus_baselines::early::{grandslam, grandslam_plus, orion, OrionConfig};
use janus_baselines::oracle::OptimalOracle;
use janus_platform::policy::SizingPolicy;
use janus_profiler::profile::WorkflowProfile;
use janus_simcore::interference::InterferenceModel;
use janus_simcore::registry::{Entry, Factory, NamedFn, Registry};
use janus_simcore::resources::CoreGrid;
use janus_simcore::time::SimDuration;
use janus_synthesizer::synthesizer::{
    ExplorationDepth, SynthesisReport, Synthesizer, SynthesizerConfig,
};
use janus_workloads::request::RequestInput;
use janus_workloads::workflow::Workflow;
use std::fmt;
use std::sync::Arc;

use crate::policy::JanusPolicy;
use janus_adapter::adapter::{Adapter, AdapterConfig};

/// Offline synthesis knobs shared by hint-based policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisSettings {
    /// Head-function weight `W` (Insight 4).
    pub weight: f64,
    /// Budget sweep granularity in milliseconds (1 ms in §V-F).
    pub budget_step_ms: f64,
}

impl Default for SynthesisSettings {
    fn default() -> Self {
        SynthesisSettings {
            weight: 1.0,
            budget_step_ms: 1.0,
        }
    }
}

/// Everything a factory may consult when instantiating a policy for one
/// serving run. Borrowed from the running [`ServingSession`]; factories must
/// not assume any field outlives the build call.
///
/// [`ServingSession`]: crate::session::ServingSession
pub struct PolicyContext<'a> {
    /// The workflow being served.
    pub workflow: &'a Workflow,
    /// Execution-time profiles of the workflow at `concurrency`.
    pub profile: &'a WorkflowProfile,
    /// End-to-end latency SLO.
    pub slo: SimDuration,
    /// Batch size (concurrency) requests are served at.
    pub concurrency: u32,
    /// The full request set of the run. Most policies ignore it; the Optimal
    /// oracle reads the pre-drawn execution factors from it.
    pub requests: &'a [RequestInput],
    /// CPU allocation grid of the platform.
    pub grid: CoreGrid,
    /// Interference model of the serving platform.
    pub interference: &'a InterferenceModel,
    /// Session seed (already mixed for profiling; use for policy-local RNG).
    pub seed: u64,
    /// Synthesis knobs for hint-based policies.
    pub synthesis: SynthesisSettings,
}

/// A policy instance ready to serve, plus any offline artefacts produced
/// while building it.
pub struct BuiltPolicy {
    /// The policy the executor will drive.
    pub policy: Box<dyn SizingPolicy>,
    /// Synthesis statistics, for policies that ran the hints pipeline.
    pub synthesis: Option<SynthesisReport>,
}

impl BuiltPolicy {
    /// Wrap a policy with no offline artefacts.
    pub fn plain(policy: impl SizingPolicy + 'static) -> Self {
        BuiltPolicy {
            policy: Box::new(policy),
            synthesis: None,
        }
    }

    /// Wrap a policy together with its synthesis report.
    fn with_synthesis(policy: impl SizingPolicy + 'static, report: SynthesisReport) -> Self {
        BuiltPolicy {
            policy: Box::new(policy),
            synthesis: Some(report),
        }
    }

    /// A new, never-served instance of this policy carrying a copy of its
    /// synthesis report (see [`SizingPolicy::fresh`]); `None` when the
    /// policy cannot make one.
    pub(crate) fn fresh(&self) -> Option<BuiltPolicy> {
        Some(BuiltPolicy {
            policy: self.policy.fresh()?,
            synthesis: self.synthesis.clone(),
        })
    }
}

impl fmt::Debug for BuiltPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuiltPolicy")
            .field("policy", &self.policy.name())
            .field("synthesis", &self.synthesis.is_some())
            .finish()
    }
}

/// An object-safe factory that instantiates one named sizing policy.
///
/// Implementations live anywhere — the built-ins below wrap the baseline
/// constructors and the Janus pipeline, and downstream crates implement the
/// trait for their own policies. `build` is called once per serving run, so
/// per-run state (hit counters, adapters) belongs in the returned policy, not
/// in the factory.
pub trait PolicyFactory: Send + Sync {
    /// Display name the policy is registered (and reported) under.
    fn name(&self) -> &str;

    /// Instantiate the policy for one serving run.
    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String>;

    /// Whether [`build`](Self::build) reads [`PolicyContext::requests`].
    /// A factory that does not may have one build serve every run that
    /// shares the other context fields, each from a
    /// [`fresh`](SizingPolicy::fresh) instance; one that does is rebuilt for
    /// every run. Default: `true`, the safe answer for any factory.
    fn reads_requests(&self) -> bool {
        true
    }
}

/// The ordered, open registry of [`PolicyFactory`]s (see
/// [`janus_simcore::registry`]). Registration order drives default report
/// ordering; registering under an existing name replaces the earlier entry
/// in place, so sessions can override a built-in without forking the
/// registry.
pub type PolicyRegistry = Registry<dyn PolicyFactory>;

impl Entry for dyn PolicyFactory {
    const NOUN: &'static str = "policy";

    fn key(&self) -> &str {
        self.name()
    }

    /// The paper's seven policies, in Table I order: Optimal, ORION,
    /// GrandSLAM+, GrandSLAM, Janus-, Janus, Janus+.
    fn builtins(registry: &mut PolicyRegistry) {
        registry.register(Arc::new(OptimalFactory));
        registry.register(Arc::new(OrionFactory::default()));
        registry.register(Arc::new(GrandSlamFactory { per_function: true }));
        registry.register(Arc::new(GrandSlamFactory {
            per_function: false,
        }));
        registry.register(Arc::new(JanusFactory::new(ExplorationDepth::None)));
        registry.register(Arc::new(JanusFactory::new(ExplorationDepth::HeadOnly)));
        registry.register(Arc::new(JanusFactory::new(ExplorationDepth::HeadAndNext)));
    }
}

impl Factory for dyn PolicyFactory {
    type Ctx<'a> = PolicyContext<'a>;
    type Output = BuiltPolicy;

    fn make(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        self.build(ctx)
    }

    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&PolicyContext<'_>) -> Result<BuiltPolicy, String> + Send + Sync + 'static,
    {
        Arc::new(NamedFn { name, f })
    }
}

impl<F> PolicyFactory for NamedFn<F>
where
    F: Fn(&PolicyContext<'_>) -> Result<BuiltPolicy, String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        (self.f)(ctx)
    }
}

/// Built-in: the late-binding Optimal oracle (normalisation baseline).
pub struct OptimalFactory;

impl PolicyFactory for OptimalFactory {
    fn name(&self) -> &str {
        "Optimal"
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        Ok(BuiltPolicy::plain(OptimalOracle::new(
            ctx.workflow,
            ctx.requests,
            ctx.slo,
            ctx.concurrency,
            ctx.grid,
            ctx.interference,
        )))
    }
}

/// Built-in: ORION's distribution-based early binding.
#[derive(Default)]
pub struct OrionFactory {
    /// Convolution configuration (Monte-Carlo draws, target percentile).
    pub config: OrionConfig,
}

impl PolicyFactory for OrionFactory {
    fn name(&self) -> &str {
        "ORION"
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        Ok(BuiltPolicy::plain(orion(
            ctx.profile,
            ctx.slo,
            &self.config,
        )?))
    }

    fn reads_requests(&self) -> bool {
        false
    }
}

/// Built-in: GrandSLAM (identical sizes) and GrandSLAM+ (per-function sizes).
pub struct GrandSlamFactory {
    /// `false` for the original identical-size GrandSLAM, `true` for the
    /// paper's per-function GrandSLAM+ enhancement.
    pub per_function: bool,
}

impl PolicyFactory for GrandSlamFactory {
    fn name(&self) -> &str {
        if self.per_function {
            "GrandSLAM+"
        } else {
            "GrandSLAM"
        }
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        let policy = if self.per_function {
            grandslam_plus(ctx.profile, ctx.slo)?
        } else {
            grandslam(ctx.profile, ctx.slo)?
        };
        Ok(BuiltPolicy::plain(policy))
    }

    fn reads_requests(&self) -> bool {
        false
    }
}

/// Built-in: the three Janus variants (profile → synthesize → adapter),
/// parameterised by percentile-exploration depth.
pub struct JanusFactory {
    exploration: ExplorationDepth,
}

impl JanusFactory {
    /// A factory for the variant with the given exploration depth.
    pub fn new(exploration: ExplorationDepth) -> Self {
        JanusFactory { exploration }
    }

    /// The developer-to-provider handoff of §III-A for one profile:
    /// synthesize and condense the hints, then hand the bundle to a fresh
    /// adapter. Fails when `synthesis` is not a valid synthesizer
    /// configuration (for example a weight below 1).
    pub fn synthesize(
        &self,
        profile: &WorkflowProfile,
        synthesis: SynthesisSettings,
    ) -> Result<(JanusPolicy, SynthesisReport), String> {
        let synthesizer = Synthesizer::new(SynthesizerConfig {
            weight: synthesis.weight,
            exploration: self.exploration,
            budget_step_ms: synthesis.budget_step_ms,
            ..SynthesizerConfig::default()
        })?;
        let (bundle, report) = synthesizer.synthesize(profile);
        let policy = JanusPolicy::new(
            self.exploration.variant_name(),
            Adapter::new(bundle, AdapterConfig::default()),
        );
        Ok((policy, report))
    }
}

impl PolicyFactory for JanusFactory {
    fn name(&self) -> &str {
        self.exploration.variant_name()
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        let (policy, report) = self.synthesize(ctx.profile, ctx.synthesis)?;
        Ok(BuiltPolicy::with_synthesis(policy, report))
    }

    fn reads_requests(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_platform::policy::FixedSizingPolicy;
    use janus_profiler::profiler::{Profiler, ProfilerConfig};
    use janus_simcore::resources::Millicores;
    use janus_workloads::apps::intelligent_assistant;
    use janus_workloads::request::RequestInputGenerator;

    fn with_ctx<R>(f: impl FnOnce(&PolicyContext<'_>) -> R) -> R {
        let workflow = intelligent_assistant();
        let profile = Profiler::new(ProfilerConfig {
            samples_per_point: 250,
            ..ProfilerConfig::default()
        })
        .unwrap()
        .profile_workflow(&workflow, 1);
        let requests = RequestInputGenerator::new(1, SimDuration::ZERO).generate(&workflow, 10);
        let interference = InterferenceModel::paper_calibrated();
        let ctx = PolicyContext {
            workflow: &workflow,
            profile: &profile,
            slo: SimDuration::from_secs(3.0),
            concurrency: 1,
            requests: &requests,
            grid: CoreGrid::paper_default(),
            interference: &interference,
            seed: 1,
            synthesis: SynthesisSettings {
                budget_step_ms: 10.0,
                ..SynthesisSettings::default()
            },
        };
        f(&ctx)
    }

    #[test]
    fn builtins_cover_the_papers_seven_policies_in_order() {
        let registry = PolicyRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec![
                "Optimal",
                "ORION",
                "GrandSLAM+",
                "GrandSLAM",
                "Janus-",
                "Janus",
                "Janus+"
            ]
        );
        assert_eq!(registry.len(), 7);
        assert!(!registry.is_empty());
    }

    #[test]
    fn every_builtin_builds_a_policy_with_its_registered_name() {
        with_ctx(|ctx| {
            let registry = PolicyRegistry::with_builtins();
            for name in registry.names() {
                let built = registry.build(name, ctx).unwrap();
                assert_eq!(built.policy.name(), name);
                let is_janus = name.starts_with("Janus");
                assert_eq!(built.synthesis.is_some(), is_janus, "{name}");
                // Only the oracle reads the request set; every other
                // built-in can serve many runs from fresh instances.
                let factory = registry.get(name).unwrap();
                assert_eq!(factory.reads_requests(), name == "Optimal", "{name}");
                if factory.reads_requests() {
                    continue;
                }
                let fresh = built.fresh().expect("fresh instance");
                assert_eq!(fresh.policy.name(), name);
                assert_eq!(fresh.synthesis.is_some(), is_janus, "{name}");
            }
        });
    }

    #[test]
    fn janus_synthesize_covers_every_suffix_and_matches_the_registry_build() {
        with_ctx(|ctx| {
            let registry = PolicyRegistry::with_builtins();
            for exploration in [
                ExplorationDepth::None,
                ExplorationDepth::HeadOnly,
                ExplorationDepth::HeadAndNext,
            ] {
                let name = exploration.variant_name();
                let (mut policy, report) = JanusFactory::new(exploration)
                    .synthesize(ctx.profile, ctx.synthesis)
                    .unwrap();
                let bundle = policy.adapter().bundle();
                assert_eq!(policy.name(), name);
                assert_eq!(report.variant, name);
                assert_eq!(bundle.tables.len(), ctx.workflow.len(), "{name}");
                assert_eq!(bundle.total_hints(), report.condensed_hints, "{name}");
                assert!(bundle.total_hints() > 0, "{name}");

                // The registry's build is the same handoff: its report counts
                // the same hints, and its policy sizes every function at
                // every budget exactly as the synthesized one does.
                let mut built = registry.build(name, ctx).unwrap();
                let built_report = built.synthesis.as_ref().unwrap();
                assert_eq!(built_report.raw_hints, report.raw_hints, "{name}");
                assert_eq!(built_report.condensed_hints, report.condensed_hints);
                let request = janus_platform::policy::RequestContext {
                    request_id: 0,
                    slo: ctx.slo,
                    concurrency: ctx.concurrency,
                    workflow_len: ctx.workflow.len(),
                };
                for index in 0..ctx.workflow.len() {
                    for budget_ms in (0..=3000).step_by(10) {
                        let budget = SimDuration::from_millis(f64::from(budget_ms));
                        assert_eq!(
                            built.policy.size_next(&request, index, budget),
                            policy.size_next(&request, index, budget),
                            "{name}: function {index} at {budget_ms} ms"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn unknown_names_report_the_known_ones() {
        with_ctx(|ctx| {
            let registry = PolicyRegistry::with_builtins();
            let err = registry.build("nope", ctx).unwrap_err();
            assert!(err.contains("unknown policy `nope`"), "{err}");
            assert!(err.contains("Janus+"), "{err}");
        });
    }

    #[test]
    fn custom_factories_can_replace_and_extend_builtins() {
        with_ctx(|ctx| {
            let mut registry = PolicyRegistry::with_builtins();
            registry.register_fn("AllMax", |ctx| {
                Ok(BuiltPolicy::plain(FixedSizingPolicy::uniform(
                    "AllMax",
                    ctx.workflow,
                    ctx.grid.max,
                )?))
            });
            assert_eq!(registry.len(), 8);
            let built = registry.build("AllMax", ctx).unwrap();
            assert_eq!(built.policy.name(), "AllMax");

            // Replacing keeps the original position.
            registry.register_fn("ORION", |ctx| {
                Ok(BuiltPolicy::plain(FixedSizingPolicy::uniform(
                    "ORION",
                    ctx.workflow,
                    Millicores::new(2222),
                )?))
            });
            assert_eq!(registry.len(), 8);
            assert_eq!(registry.names()[1], "ORION");
            let mut built = registry.build("ORION", ctx).unwrap();
            let ctx_req = janus_platform::policy::RequestContext {
                request_id: 0,
                slo: ctx.slo,
                concurrency: 1,
                workflow_len: ctx.workflow.len(),
            };
            assert_eq!(
                built.policy.size_next(&ctx_req, 0, ctx.slo),
                Millicores::new(2222)
            );
        });
    }
}
