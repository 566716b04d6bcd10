//! Quickstart: serve the Intelligent Assistant workflow with Janus through
//! the unified [`ServingSession`] builder.
//!
//! ```text
//! cargo run --release -p janus-core --example quickstart
//! ```
//!
//! [`ServingSession`]: janus_core::session::ServingSession

use janus_core::session::{Load, ServingSession};
use janus_core::workloads::apps::PaperApp;

fn main() -> Result<(), String> {
    // One entry point drives the whole bilateral pipeline: the session
    // profiles the workflow (developer side), synthesizes hints for the
    // Janus policy (developer side), deploys the adapter (provider side)
    // and replays requests on the platform.
    let app = PaperApp::IntelligentAssistant;
    let report = ServingSession::builder()
        .app(app)
        .concurrency(1)
        .policy("Janus")
        .load(Load::Closed { requests: 20 })
        .samples_per_point(400)
        .budget_step_ms(2.0)
        .seed(42)
        .run()?;

    let janus = report.report("Janus").expect("Janus ran");
    let synthesis = janus.synthesis.as_ref().expect("Janus synthesizes hints");
    println!(
        "Synthesized {} condensed hints ({} raw, {:.1}% compression) in {:.1} ms",
        synthesis.condensed_hints,
        synthesis.raw_hints,
        synthesis.compression_ratio * 100.0,
        synthesis.synthesis_time_ms,
    );

    println!(
        "\nServed {} requests under a {:.1} s SLO:",
        janus.serving.len(),
        report.slo.as_secs()
    );
    for outcome in &janus.serving.outcomes {
        println!(
            "  request {:>2}: E2E {:>7.1} ms, CPU {:>5} mc, SLO {}",
            outcome.request_id,
            outcome.e2e.as_millis(),
            outcome.total_cpu().get(),
            if outcome.slo_met { "met" } else { "VIOLATED" }
        );
    }
    println!(
        "\nmean CPU {:.1} mc, P99 E2E {:.2} s, SLO attainment {:.1}%, mean decision {:.1} µs (1 in 64 timed)",
        janus.serving.mean_cpu_millicores(),
        janus
            .serving
            .e2e_percentile(99.0)
            .map(|d| d.as_secs())
            .unwrap_or(0.0),
        janus.slo_attainment() * 100.0,
        janus.mean_decision_time_us.unwrap_or(0.0),
    );
    Ok(())
}
