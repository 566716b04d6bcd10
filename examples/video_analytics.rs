//! Video Analyze scenario: serve the FE → ICL → ICO chain under a tight
//! 1.5 s SLO, then demonstrate the miss-rate supervision / asynchronous
//! regeneration loop by shifting the workload distribution.
//!
//! ```text
//! cargo run --release -p janus-core --example video_analytics
//! ```

use janus_core::adapter::feedback::{FeedbackChannel, FeedbackEvent};
use janus_core::platform::executor::{ClosedLoopExecutor, ExecutorConfig};
use janus_core::profiler::profiler::{Profiler, ProfilerConfig};
use janus_core::registry::{JanusFactory, SynthesisSettings};
use janus_core::session::{Load, ServingSession};
use janus_core::synthesizer::synthesizer::ExplorationDepth;
use janus_core::workloads::apps::PaperApp;
use janus_core::workloads::request::RequestInputGenerator;
use janus_simcore::time::SimDuration;

fn main() -> Result<(), String> {
    let app = PaperApp::VideoAnalyze;

    // Normal serving: the hints fit the observed distribution. The unified
    // session builder runs the whole pipeline (profile, synthesize, serve).
    let session_report = ServingSession::builder()
        .app(app)
        .policy("Janus")
        .load(Load::Closed { requests: 200 })
        .samples_per_point(400)
        .budget_step_ms(2.0)
        .seed(3)
        .run()?;
    let janus = session_report.report("Janus").expect("Janus ran");
    println!(
        "VA normal serving: mean CPU {:.1} mc, P99 E2E {:.2} s, SLO attainment {:.1}%",
        janus.serving.mean_cpu_millicores(),
        janus
            .serving
            .e2e_percentile(99.0)
            .map(|d| d.as_secs())
            .unwrap_or(0.0),
        janus.slo_attainment() * 100.0
    );

    // The supervision demo below needs direct access to the adapter's
    // hit/miss statistics and a hand-mutated request set, so it profiles,
    // synthesizes and drives the executor underneath the session
    // abstraction.
    let workflow = app.workflow();
    let profile = Profiler::new(ProfilerConfig {
        samples_per_point: 400,
        seed: 0xC0FFEE,
        ..ProfilerConfig::default()
    })?
    .profile_workflow(&workflow, 1);
    let (mut policy, _) = JanusFactory::new(ExplorationDepth::HeadOnly).synthesize(
        &profile,
        SynthesisSettings {
            budget_step_ms: 2.0,
            ..SynthesisSettings::default()
        },
    )?;
    let slo = app.default_slo(1);
    let executor = ClosedLoopExecutor::new(workflow.clone(), ExecutorConfig::paper_serving(slo, 1));

    // Distribution shift: requests suddenly take much longer than profiled
    // (e.g. higher-resolution videos). Budgets collapse below the tables'
    // ranges, misses accumulate, and the supervisor asks for regeneration.
    let mut shifted = RequestInputGenerator::new(4, SimDuration::ZERO).generate(&workflow, 200);
    for request in &mut shifted {
        for factor in &mut request.factors {
            *factor *= 2.2;
        }
    }
    let feedback = FeedbackChannel::new();
    let report = executor.run(&mut policy, &shifted);
    println!(
        "VA after workload shift: P99 E2E {:.2} s, miss rate {:.2}%, violations {:.1}%",
        report
            .e2e_percentile(99.0)
            .map(|d| d.as_secs())
            .unwrap_or(0.0),
        policy.adapter().miss_rate() * 100.0,
        report.slo_violation_rate() * 100.0
    );
    if policy.adapter().regeneration_recommended() {
        feedback.emit(FeedbackEvent::RegenerationRequested {
            workflow: workflow.name().to_string(),
            observed_miss_rate: policy.adapter().miss_rate(),
            observations: policy.adapter().decisions(),
        });
    }
    match feedback.poll() {
        Some(FeedbackEvent::RegenerationRequested {
            workflow,
            observed_miss_rate,
            observations,
        }) => println!(
            "Supervisor: miss rate {:.1}% over {} decisions on '{}' — re-profiling and \
             re-synthesizing hints asynchronously (the adapter keeps serving with Kmax \
             fallbacks in the meantime).",
            observed_miss_rate * 100.0,
            observations,
            workflow
        ),
        _ => println!("Supervisor: miss rate within threshold, no regeneration needed."),
    }
    Ok(())
}
