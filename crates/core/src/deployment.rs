//! The end-to-end Janus deployment pipeline for one workflow.
//!
//! `build()` runs the whole bilateral handshake the paper describes in
//! §III-A: the developer-side profiler collects the execution-time
//! distributions, the synthesizer generates and condenses the hints, and the
//! provider-side adapter is instantiated from the submitted bundle. The
//! result can mint any number of [`JanusPolicy`] instances for serving.

use crate::policy::JanusPolicy;
use janus_adapter::adapter::{Adapter, AdapterConfig};
use janus_profiler::profile::WorkflowProfile;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_synthesizer::hints::HintsBundle;
use janus_synthesizer::synthesizer::{
    ExplorationDepth, SynthesisReport, Synthesizer, SynthesizerConfig,
};
use janus_workloads::apps::PaperApp;
use janus_workloads::workflow::Workflow;

/// The three Janus variants of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JanusVariant {
    /// `Janus⁻`: every function planned at P99 (no percentile exploration).
    Minus,
    /// `Janus`: head-function percentile exploration (the paper's system).
    Standard,
    /// `Janus⁺`: head and next-to-head exploration (more resource-efficient,
    /// far more expensive to synthesize).
    Plus,
}

impl JanusVariant {
    /// The exploration depth this variant uses.
    pub fn exploration(self) -> ExplorationDepth {
        match self {
            JanusVariant::Minus => ExplorationDepth::None,
            JanusVariant::Standard => ExplorationDepth::HeadOnly,
            JanusVariant::Plus => ExplorationDepth::HeadAndNext,
        }
    }

    /// Display name matching the paper ("Janus-", "Janus", "Janus+").
    pub fn name(self) -> &'static str {
        self.exploration().variant_name()
    }
}

/// Configuration of a Janus deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// The application to deploy.
    pub app: PaperApp,
    /// Concurrency (batch size) the workflow is served at.
    pub concurrency: u32,
    /// Variant (Janus⁻ / Janus / Janus⁺).
    pub variant: JanusVariant,
    /// Head-function weight `W`.
    pub weight: f64,
    /// Profiler samples per (allocation, concurrency) grid point.
    pub samples_per_point: usize,
    /// Budget sweep granularity in milliseconds.
    pub budget_step_ms: f64,
    /// Profiling / synthesis RNG seed.
    pub seed: u64,
}

impl DeploymentConfig {
    /// The paper's configuration: 1 ms budget sweep, Janus variant, W = 1.
    pub fn paper_default(app: PaperApp, concurrency: u32) -> Self {
        DeploymentConfig {
            app,
            concurrency,
            variant: JanusVariant::Standard,
            weight: 1.0,
            samples_per_point: 1200,
            budget_step_ms: 1.0,
            seed: 0xC0FFEE,
        }
    }

    /// A lighter configuration for unit tests and doc examples: fewer profile
    /// samples and a coarser budget sweep, preserving every code path.
    pub fn quick_for_tests(app: PaperApp, concurrency: u32) -> Self {
        DeploymentConfig {
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..Self::paper_default(app, concurrency)
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.concurrency == 0 {
            return Err("concurrency must be at least 1".into());
        }
        if self.app == PaperApp::VideoAnalyze && self.concurrency > 1 {
            return Err("VA cannot batch (FE and ICO are non-batchable); use concurrency 1".into());
        }
        if self.weight < 1.0 {
            return Err(format!("weight must be >= 1.0, got {}", self.weight));
        }
        Ok(())
    }
}

/// A fully built Janus deployment: profiles, hints and the provider adapter
/// template.
#[derive(Debug)]
pub struct JanusDeployment {
    config: DeploymentConfig,
    workflow: Workflow,
    profile: WorkflowProfile,
    bundle: HintsBundle,
    report: SynthesisReport,
}

impl JanusDeployment {
    /// Run the offline pipeline: profile → synthesize → condense.
    pub fn build(config: &DeploymentConfig) -> Result<Self, String> {
        config.validate()?;
        let workflow = config.app.workflow();
        let profiler = Profiler::new(ProfilerConfig {
            samples_per_point: config.samples_per_point,
            seed: config.seed,
            ..ProfilerConfig::default()
        })?;
        let profile = profiler.profile_workflow(&workflow, config.concurrency);
        let synthesizer = Synthesizer::new(SynthesizerConfig {
            weight: config.weight,
            exploration: config.variant.exploration(),
            budget_step_ms: config.budget_step_ms,
            ..SynthesizerConfig::default()
        })?;
        let (bundle, report) = synthesizer.synthesize(&profile);
        Ok(JanusDeployment {
            config: config.clone(),
            workflow,
            profile,
            bundle,
            report,
        })
    }

    /// Build a deployment from an already-collected profile (used when the
    /// same profile backs several variants/weights, e.g. in the benches).
    pub fn from_profile(
        config: &DeploymentConfig,
        workflow: Workflow,
        profile: WorkflowProfile,
    ) -> Result<Self, String> {
        config.validate()?;
        let synthesizer = Synthesizer::new(SynthesizerConfig {
            weight: config.weight,
            exploration: config.variant.exploration(),
            budget_step_ms: config.budget_step_ms,
            ..SynthesizerConfig::default()
        })?;
        let (bundle, report) = synthesizer.synthesize(&profile);
        Ok(JanusDeployment {
            config: config.clone(),
            workflow,
            profile,
            bundle,
            report,
        })
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The deployed workflow.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The profiles collected by the developer-side profiler.
    pub fn profile(&self) -> &WorkflowProfile {
        &self.profile
    }

    /// The condensed hints bundle submitted to the provider.
    pub fn bundle(&self) -> &HintsBundle {
        &self.bundle
    }

    /// Synthesis statistics (time cost, hint counts, compression).
    pub fn report(&self) -> &SynthesisReport {
        &self.report
    }

    /// Mint a fresh provider-side policy (each serving run gets its own
    /// adapter instance so hit/miss statistics are per-run).
    pub fn policy(&self) -> JanusPolicy {
        JanusPolicy::new(
            self.config.variant.name(),
            Adapter::new(self.bundle.clone(), AdapterConfig::default()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_the_paper() {
        assert_eq!(JanusVariant::Minus.name(), "Janus-");
        assert_eq!(JanusVariant::Standard.name(), "Janus");
        assert_eq!(JanusVariant::Plus.name(), "Janus+");
    }

    #[test]
    fn config_validation_rejects_bad_setups() {
        let mut cfg = DeploymentConfig::quick_for_tests(PaperApp::IntelligentAssistant, 1);
        cfg.concurrency = 0;
        assert!(cfg.validate().is_err());
        let cfg = DeploymentConfig::quick_for_tests(PaperApp::VideoAnalyze, 2);
        assert!(cfg.validate().is_err(), "VA cannot batch");
        let mut cfg = DeploymentConfig::quick_for_tests(PaperApp::IntelligentAssistant, 1);
        cfg.weight = 0.2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn build_produces_tables_for_every_suffix() {
        let cfg = DeploymentConfig::quick_for_tests(PaperApp::IntelligentAssistant, 1);
        let deployment = JanusDeployment::build(&cfg).unwrap();
        assert_eq!(deployment.bundle().tables.len(), 3);
        assert!(deployment.bundle().total_hints() > 0);
        assert!(deployment.report().synthesis_time_ms > 0.0);
        assert_eq!(deployment.workflow().len(), 3);
        let policy = deployment.policy();
        assert_eq!(policy.adapter().bundle().workflow, "IA");
    }

    #[test]
    fn from_profile_reuses_the_measurement() {
        let cfg = DeploymentConfig::quick_for_tests(PaperApp::IntelligentAssistant, 1);
        let built = JanusDeployment::build(&cfg).unwrap();
        let mut plus_cfg = cfg.clone();
        plus_cfg.variant = JanusVariant::Plus;
        let plus = JanusDeployment::from_profile(
            &plus_cfg,
            built.workflow().clone(),
            built.profile().clone(),
        )
        .unwrap();
        assert_eq!(plus.report().variant, "Janus+");
        assert!(plus.bundle().total_hints() > 0);
    }
}
