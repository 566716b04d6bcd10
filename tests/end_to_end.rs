//! Cross-crate integration test: the full bilateral pipeline.
//!
//! Profiles the paper's workflows (janus-workloads + janus-profiler),
//! synthesizes hints (janus-synthesizer), deploys the adapter
//! (janus-adapter), serves requests on the platform (janus-platform) and
//! checks the headline evaluation claims against the baselines
//! (janus-baselines).

use janus_core::experiments::{ExperimentCtx, Scale, TABLE1_POLICIES};
use janus_core::platform::executor::{ClosedLoopExecutor, ExecutorConfig};
use janus_core::profiler::profile::WorkflowProfile;
use janus_core::profiler::profiler::{Profiler, ProfilerConfig};
use janus_core::registry::{JanusFactory, SynthesisSettings};
use janus_core::session::{ServingSessionBuilder, SessionReport};
use janus_core::synthesizer::synthesizer::ExplorationDepth;
use janus_core::workloads::apps::PaperApp;
use janus_core::workloads::request::RequestInputGenerator;
use janus_core::JanusPolicy;
use janus_simcore::time::SimDuration;

/// The quick-scale paired comparison: 200 requests, 300 profile samples, a
/// 5 ms budget step, seed 7.
fn quick(app: PaperApp, concurrency: u32) -> ServingSessionBuilder {
    ExperimentCtx::new(Scale::Quick).session(app, concurrency)
}

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

/// The Janus variant of the given exploration depth, synthesized from
/// `profile` on a 5 ms budget step.
fn janus(exploration: ExplorationDepth, profile: &WorkflowProfile) -> JanusPolicy {
    JanusFactory::new(exploration)
        .synthesize(
            profile,
            SynthesisSettings {
                budget_step_ms: 5.0,
                ..SynthesisSettings::default()
            },
        )
        .unwrap()
        .0
}

fn table1(app: PaperApp) -> SessionReport {
    quick(app, 1)
        .policies(TABLE1_POLICIES.iter().copied())
        .run()
        .unwrap()
}

#[test]
fn table1_headline_holds_for_ia() {
    let outcome = table1(PaperApp::IntelligentAssistant);
    let optimal = outcome.serving("Optimal").unwrap();
    let janus = outcome.serving("Janus").unwrap();
    let orion = outcome.serving("ORION").unwrap();
    let grandslam = outcome.serving("GrandSLAM").unwrap();
    let grandslam_plus = outcome.serving("GrandSLAM+").unwrap();
    let janus_minus = outcome.serving("Janus-").unwrap();
    let janus_plus = outcome.serving("Janus+").unwrap();

    // Who wins: Optimal <= Janus+ <= Janus <= Janus- and Janus < every early binder.
    assert!(optimal.mean_cpu_millicores() <= janus.mean_cpu_millicores());
    assert!(janus_plus.mean_cpu_millicores() <= janus.mean_cpu_millicores() + 50.0);
    assert!(janus.mean_cpu_millicores() <= janus_minus.mean_cpu_millicores() + 1e-9);
    assert!(janus.mean_cpu_millicores() < orion.mean_cpu_millicores());
    assert!(orion.mean_cpu_millicores() < grandslam_plus.mean_cpu_millicores());
    assert!(grandslam_plus.mean_cpu_millicores() <= grandslam.mean_cpu_millicores());

    // Everyone keeps the P99-style SLO guarantee (small violation rates).
    for name in TABLE1_POLICIES {
        let rate = outcome.serving(name).unwrap().slo_violation_rate();
        assert!(rate <= 0.03, "{name} violation rate {rate}");
    }

    // The Table I reductions are positive for every early-binding baseline.
    for other in ["ORION", "GrandSLAM+", "GrandSLAM"] {
        let reduction = outcome.reduction_percent("Janus", other).unwrap();
        assert!(reduction > 0.0, "reduction vs {other} was {reduction}");
    }
}

#[test]
fn table1_headline_holds_for_va() {
    let outcome = table1(PaperApp::VideoAnalyze);
    let janus = outcome.serving("Janus").unwrap();
    let orion = outcome.serving("ORION").unwrap();
    let grandslam = outcome.serving("GrandSLAM").unwrap();
    assert!(janus.mean_cpu_millicores() < orion.mean_cpu_millicores());
    assert!(orion.mean_cpu_millicores() < grandslam.mean_cpu_millicores());
    assert!(janus.slo_violation_rate() <= 0.03);
    assert!(outcome.reduction_percent("Janus", "GrandSLAM+").unwrap() > 0.0);
}

#[test]
fn higher_concurrency_magnifies_early_binding_overprovisioning() {
    // §V-B: at concurrency 2–3 the early binders over-allocate even more
    // relative to Optimal, while Janus tracks the variance at runtime.
    let run = |concurrency| {
        quick(PaperApp::IntelligentAssistant, concurrency)
            .policies(["Optimal", "GrandSLAM", "Janus"])
            .run()
            .unwrap()
    };
    let conc1 = run(1);
    let conc2 = run(2);
    let janus_norm_1 = conc1.normalized_cpu("Janus", "Optimal").unwrap();
    let janus_norm_2 = conc2.normalized_cpu("Janus", "Optimal").unwrap();
    let gs_norm_2 = conc2.normalized_cpu("GrandSLAM", "Optimal").unwrap();
    assert!(
        gs_norm_2 > janus_norm_2,
        "GrandSLAM {gs_norm_2} vs Janus {janus_norm_2}"
    );
    assert!(
        janus_norm_1 < 1.6 && janus_norm_2 < 1.6,
        "Janus stays near Optimal"
    );
    assert!(
        conc2.serving("Janus").unwrap().slo_violation_rate() <= 0.03,
        "Janus keeps the 4s SLO at concurrency 2"
    );
}

#[test]
fn janus_variants_differ_only_in_percentile_exploration() {
    let app = PaperApp::IntelligentAssistant;
    let profile = profile(app);
    let mut standard = janus(ExplorationDepth::HeadOnly, &profile);
    let mut minus = janus(ExplorationDepth::None, &profile);

    // Janus- plans every row at the tail percentile; Janus uses lower ones too.
    let minus_all_tail = minus
        .adapter()
        .bundle()
        .tables
        .iter()
        .flat_map(|t| t.rows())
        .all(|r| r.head_percentile.value() >= 99.0);
    assert!(minus_all_tail);
    let standard_explores = standard
        .adapter()
        .bundle()
        .tables
        .iter()
        .flat_map(|t| t.rows())
        .any(|r| r.head_percentile.value() < 99.0);
    assert!(standard_explores);

    // Serving with either variant keeps the SLO; Janus is at least as cheap.
    let workflow = app.workflow();
    let slo = app.default_slo(1);
    let executor = ClosedLoopExecutor::new(workflow.clone(), ExecutorConfig::paper_serving(slo, 1));
    let requests = RequestInputGenerator::new(5, SimDuration::ZERO).generate(&workflow, 200);
    let standard_report = executor.run(&mut standard, &requests);
    let minus_report = executor.run(&mut minus, &requests);
    assert!(standard_report.mean_cpu_millicores() <= minus_report.mean_cpu_millicores() + 1e-9);
    assert!(standard_report.slo_violation_rate() <= 0.03);
    assert!(minus_report.slo_violation_rate() <= 0.03);
}

#[test]
fn adapter_decisions_stay_fast_at_serving_scale() {
    // §V-H: the online decision path must stay far below 3 ms even after
    // thousands of decisions.
    let app = PaperApp::IntelligentAssistant;
    let mut policy = janus(ExplorationDepth::HeadOnly, &profile(app));
    let workflow = app.workflow();
    let executor = ClosedLoopExecutor::new(
        workflow.clone(),
        ExecutorConfig::paper_serving(SimDuration::from_secs(3.0), 1),
    );
    let requests = RequestInputGenerator::new(11, SimDuration::ZERO).generate(&workflow, 500);
    let _report = executor.run(&mut policy, &requests);
    assert_eq!(
        policy.adapter().decisions(),
        1500,
        "3 decisions per request"
    );
    assert!(policy.adapter().mean_decision_time_us() < 3000.0);
    assert!(
        policy.adapter().hit_rate() > 0.97,
        "hit rate {}",
        policy.adapter().hit_rate()
    );
}
