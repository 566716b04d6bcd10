//! Flight recorder: trace a flash crowd that loses a zone mid-spike, then
//! feed the artefact to `janus report`.
//!
//! ```text
//! cargo run --release -p janus-core --example flight_recorder > trace.jsonl
//! cargo run --release -p janus-bench --bin janus -- report trace.jsonl
//! ```
//!
//! The JSONL trace goes to stdout (stderr carries the human summary), so
//! the example doubles as the generator of the committed golden artefact at
//! `specs/golden_trace.jsonl`. The session is fully seeded: rerunning it
//! reproduces the artefact byte for byte, which
//! `tests/specs.rs::golden_trace_artefact_is_reproducible_and_reportable`
//! enforces by calling [`flight_recorder`] from this file.

use janus_core::session::{Load, ServingSession, SessionReport};
use janus_core::workloads::apps::PaperApp;
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::resources::Millicores;

/// Run the traced session behind the golden artefact.
pub fn flight_recorder() -> Result<SessionReport, String> {
    // Four spread 8-core nodes across two zones: the zone outage halves
    // capacity in one event, right as the flash crowd peaks.
    ServingSession::builder()
        .app(PaperApp::IntelligentAssistant)
        .concurrency(1)
        .policy("GrandSLAM")
        .load(Load::Open {
            requests: 48,
            rps: 6.0,
        })
        .cluster(ClusterConfig {
            nodes: 4,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 2,
        })
        .scenario("flash-crowd")
        .autoscaler("static")
        .admission("admit-all")
        .fault("zone-outage")
        .observe("flight-recorder")
        .seed(7)
        .samples_per_point(300)
        .budget_step_ms(5.0)
        .run()
}

#[allow(dead_code)] // `tests/specs.rs` includes this file for `flight_recorder` only.
fn main() -> Result<(), String> {
    let report = flight_recorder()?;
    let trace = report
        .trace()
        .ok_or("flight-recorder attached but no trace was recorded")?;
    print!("{trace}");

    let serving = report.serving("GrandSLAM").ok_or("GrandSLAM ran")?;
    let capacity = serving
        .capacity
        .as_ref()
        .ok_or("capacity-controlled run must report capacity")?;
    eprintln!(
        "traced {} lines: {} served, {} failed, {} shed, {} nodes lost to the outage",
        trace.lines().count(),
        serving.served_len(),
        serving.failed_len(),
        capacity.shed,
        capacity.nodes_lost,
    );
    Ok(())
}
