//! Integration test of the hints lifecycle across the developer/provider
//! boundary: synthesis → JSON submission → adapter deployment → miss-rate
//! supervision → asynchronous regeneration.

use janus_core::adapter::adapter::{Adapter, AdapterConfig};
use janus_core::adapter::feedback::{FeedbackChannel, FeedbackEvent};
use janus_core::profiler::profile::WorkflowProfile;
use janus_core::profiler::profiler::{Profiler, ProfilerConfig};
use janus_core::registry::{JanusFactory, SynthesisSettings};
use janus_core::synthesizer::hints::HintsBundle;
use janus_core::synthesizer::synthesizer::{ExplorationDepth, SynthesisReport};
use janus_core::workloads::apps::PaperApp;
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;

/// Test-scale profile of `app` at concurrency 1: 300 samples per grid point.
fn profile(app: PaperApp) -> WorkflowProfile {
    Profiler::new(ProfilerConfig {
        samples_per_point: 300,
        seed: 0xC0FFEE,
        ..ProfilerConfig::default()
    })
    .unwrap()
    .profile_workflow(&app.workflow(), 1)
}

/// The condensed Janus bundle synthesized from `profile` at head weight
/// `weight` on a 5 ms budget step, with its synthesis report.
fn synthesize(profile: &WorkflowProfile, weight: f64) -> (HintsBundle, SynthesisReport) {
    let (policy, report) = JanusFactory::new(ExplorationDepth::HeadOnly)
        .synthesize(
            profile,
            SynthesisSettings {
                weight,
                budget_step_ms: 5.0,
            },
        )
        .unwrap();
    (policy.adapter().bundle().clone(), report)
}

fn bundle(app: PaperApp) -> HintsBundle {
    synthesize(&profile(app), 1.0).0
}

#[test]
fn hints_survive_the_json_handoff_between_developer_and_provider() {
    // The developer submits the bundle as JSON (the paper's hints table is a
    // pandas DataFrame serialised to the provider); the provider's adapter
    // must make identical decisions from the deserialised copy.
    let bundle = bundle(PaperApp::IntelligentAssistant);
    let json = bundle.to_json().unwrap();
    assert!(json.contains("tables"));
    let parsed = HintsBundle::from_json(&json).unwrap();
    assert_eq!(parsed, bundle);

    let mut original = Adapter::new(bundle, AdapterConfig::default());
    let mut restored = Adapter::new(parsed, AdapterConfig::default());
    for i in 0..200 {
        let budget = SimDuration::from_millis(1000.0 + 25.0 * f64::from(i));
        for finished in 0..3 {
            let a = original.decide(finished, budget);
            let b = restored.decide(finished, budget);
            assert_eq!(a.head_cores, b.head_cores);
            assert_eq!(a.source, b.source);
        }
    }
}

#[test]
fn condensed_tables_are_compact_like_the_paper() {
    // §V-F: after condensing, IA needs fewer than ~150 hints and VA fewer
    // than ~100, with compression ratios above 90 %.
    let (ia, ia_report) = synthesize(&profile(PaperApp::IntelligentAssistant), 1.0);
    let (va, va_report) = synthesize(&profile(PaperApp::VideoAnalyze), 1.0);
    assert!(ia.total_hints() < 400, "IA hints {}", ia.total_hints());
    assert!(va.total_hints() < 250, "VA hints {}", va.total_hints());
    assert!(ia_report.compression_ratio > 0.5);
    assert!(va_report.compression_ratio > 0.5);
    // Hints memory footprint stays tiny (paper: ~12 MB including the Python
    // runtime; the tables themselves are kilobytes).
    assert!(ia.approx_size_bytes() < 64 * 1024);
    assert!(va.approx_size_bytes() < 64 * 1024);
}

#[test]
fn sustained_misses_trigger_regeneration_and_recovery() {
    let bundle = bundle(PaperApp::VideoAnalyze);
    let mut adapter = Adapter::new(bundle.clone(), AdapterConfig::default());
    let feedback = FeedbackChannel::new();

    // Budgets far below anything profiled: every lookup misses and the
    // adapter protects the SLO by scaling to Kmax.
    for _ in 0..300 {
        let decision = adapter.decide(0, SimDuration::from_millis(40.0));
        assert_eq!(decision.head_cores, Millicores::new(3000));
    }
    assert!(adapter.miss_rate() > 0.99);
    assert!(adapter.regeneration_recommended());
    feedback.emit(FeedbackEvent::RegenerationRequested {
        workflow: bundle.workflow.clone(),
        observed_miss_rate: adapter.miss_rate(),
        observations: adapter.decisions(),
    });

    // The developer re-runs profiling/synthesis asynchronously and submits a
    // fresh bundle; supervision resets and normal budgets hit again.
    let regenerated = bundle.clone();
    adapter.install_bundle(regenerated);
    feedback.emit(FeedbackEvent::BundleInstalled {
        workflow: bundle.workflow.clone(),
    });
    assert!(!adapter.regeneration_recommended());
    let decision = adapter.decide(0, SimDuration::from_millis(1400.0));
    assert!(decision.source != janus_core::adapter::adapter::DecisionSource::MissScaleToMax);
    assert_eq!(feedback.drain().len(), 2);
}

#[test]
fn weight_specific_tables_are_kept_separately() {
    // §IV-B: "the synthesizer maintains individual hint tables for different
    // weights" — bundles built with different weights are distinct artefacts.
    let profile = profile(PaperApp::IntelligentAssistant);
    let (w1, _) = synthesize(&profile, 1.0);
    let (w3, _) = synthesize(&profile, 3.0);
    assert_eq!(w1.weight, 1.0);
    assert_eq!(w3.weight, 3.0);
    assert_ne!(w1, w3);
    // Higher weights never enlarge the table (Figure 8's trend).
    assert!(w3.total_hints() <= w1.total_hints() + 40);
}
