//! Intelligent Assistant scenario: compare Janus against the early-binding
//! baselines and the Optimal oracle on the OD → QA → TS chain (the paper's
//! primary workload), through one [`ServingSession`].
//!
//! ```text
//! cargo run --release -p janus-core --example intelligent_assistant
//! ```
//!
//! [`ServingSession`]: janus_core::session::ServingSession

use janus_core::experiments::TABLE1_POLICIES;
use janus_core::session::{Load, ServingSession};
use janus_core::workloads::apps::PaperApp;

fn main() -> Result<(), String> {
    let session = ServingSession::builder()
        .app(PaperApp::IntelligentAssistant)
        .concurrency(1)
        .policies(TABLE1_POLICIES.iter().copied())
        .load(Load::Closed { requests: 300 })
        .samples_per_point(400)
        .budget_step_ms(2.0)
        .build()?;
    println!(
        "Serving 300 IA requests at concurrency 1 under a {:.1} s SLO…\n",
        session.slo().as_secs()
    );
    let report = session.run()?;

    println!(
        "{:>12} {:>12} {:>12} {:>10} {:>10}",
        "policy", "mean CPU mc", "vs Optimal", "P99 E2E s", "violations"
    );
    for policy in &report.policies {
        println!(
            "{:>12} {:>12.1} {:>12.3} {:>10.2} {:>9.1}%",
            policy.name,
            policy.serving.mean_cpu_millicores(),
            report
                .normalized_cpu(&policy.name, "Optimal")
                .unwrap_or(f64::NAN),
            policy
                .serving
                .e2e_percentile(99.0)
                .map(|d| d.as_secs())
                .unwrap_or(0.0),
            policy.serving.slo_violation_rate() * 100.0
        );
    }

    println!("\nTable I style reductions (normalised by Optimal):");
    for other in ["ORION", "GrandSLAM+", "GrandSLAM", "Janus-", "Janus+"] {
        if let Some(reduction) = report.reduction_percent("Janus", other) {
            println!("  Janus vs {other:>12}: {reduction:>6.1}%");
        }
    }
    Ok(())
}
