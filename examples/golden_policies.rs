//! Golden policies: every policy artefact the developer side builds from a
//! profile — the condensed hints bundles of Janus⁻, Janus and Janus⁺, and
//! the fixed sizes of ORION and GrandSLAM⁺ — for a few paper cells.
//!
//! ```text
//! cargo run --release -p janus-core --example golden_policies > specs/golden_policies.json
//! ```
//!
//! The document goes to stdout, so the example is the generator of the
//! committed artefact at `specs/golden_policies.json`. Everything is a pure
//! function of the seeded profiles: rerunning it reproduces the artefact
//! byte for byte, which
//! `tests/specs.rs::golden_policies_artefact_is_reproducible` enforces by
//! calling [`golden_policies`] from this file.

use janus_core::baselines::early::{grandslam_plus, orion, OrionConfig};
use janus_core::profiler::profiler::{Profiler, ProfilerConfig};
use janus_core::synthesizer::synthesizer::{ExplorationDepth, Synthesizer, SynthesizerConfig};
use janus_core::workloads::apps::PaperApp;
use janus_json::Value;

/// Profiling seed of every cell.
const SEED: u64 = 7;
/// Samples per profiled grid point: small enough for a debug-build test.
const SAMPLES_PER_POINT: usize = 300;
/// The (application, concurrency) cells covered.
const CELLS: [(PaperApp, u32); 3] = [
    (PaperApp::IntelligentAssistant, 1),
    (PaperApp::IntelligentAssistant, 3),
    (PaperApp::VideoAnalyze, 1),
];
/// Budget-sweep granularities (ms) each Janus variant is synthesized at.
const BUDGET_STEPS_MS: [f64; 2] = [1.0, 5.0];
const VARIANTS: [ExplorationDepth; 3] = [
    ExplorationDepth::None,
    ExplorationDepth::HeadOnly,
    ExplorationDepth::HeadAndNext,
];

/// Build the golden policies document (pretty-printed JSON).
pub fn golden_policies() -> Result<String, String> {
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: SAMPLES_PER_POINT,
        seed: SEED,
        ..ProfilerConfig::default()
    })?;
    let sizes = |sizes: &[janus_core::simcore::resources::Millicores]| {
        Value::Arr(
            sizes
                .iter()
                .map(|k| Value::Num(f64::from(k.get())))
                .collect(),
        )
    };
    let mut cells = Vec::with_capacity(CELLS.len());
    for (app, concurrency) in CELLS {
        let profile = profiler.profile_workflow(&app.workflow(), concurrency);
        let slo = app.default_slo(concurrency);
        let mut bundles = Vec::with_capacity(BUDGET_STEPS_MS.len() * VARIANTS.len());
        for budget_step_ms in BUDGET_STEPS_MS {
            for exploration in VARIANTS {
                let synthesizer = Synthesizer::new(SynthesizerConfig {
                    exploration,
                    budget_step_ms,
                    ..SynthesizerConfig::default()
                })?;
                let (bundle, _) = synthesizer.synthesize(&profile);
                bundles.push(Value::Obj(vec![
                    (
                        "variant".into(),
                        Value::Str(exploration.variant_name().into()),
                    ),
                    ("budget_step_ms".into(), Value::Num(budget_step_ms)),
                    ("bundle".into(), janus_json::parse(&bundle.to_json()?)?),
                ]));
            }
        }
        cells.push(Value::Obj(vec![
            ("app".into(), Value::Str(app.short_name().into())),
            ("concurrency".into(), Value::Num(f64::from(concurrency))),
            ("slo_ms".into(), Value::Num(slo.as_millis())),
            (
                "orion".into(),
                sizes(orion(&profile, slo, &OrionConfig::default())?.sizes()),
            ),
            (
                "grandslam_plus".into(),
                sizes(grandslam_plus(&profile, slo)?.sizes()),
            ),
            ("janus".into(), Value::Arr(bundles)),
        ]));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), Value::Num(SEED as f64)),
        (
            "samples_per_point".into(),
            Value::Num(SAMPLES_PER_POINT as f64),
        ),
        ("cells".into(), Value::Arr(cells)),
    ]);
    let mut out = String::new();
    write_rows_compact(&doc, 0, &mut out);
    Ok(out)
}

/// Pretty-print `value` like [`Value::to_pretty`], except that every hint
/// row sits on one line: the artefact diffs row by row.
fn write_rows_compact(value: &Value, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    match value {
        Value::Obj(fields) if !fields.is_empty() && fields[0].0 != "start_ms" => {
            out.push('{');
            for (i, (key, field)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                pad(out, depth + 1);
                out.push_str(&Value::Str(key.clone()).to_compact());
                out.push_str(": ");
                write_rows_compact(field, depth + 1, out);
            }
            pad(out, depth);
            out.push('}');
        }
        Value::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { "," });
                pad(out, depth + 1);
                write_rows_compact(item, depth + 1, out);
            }
            pad(out, depth);
            out.push(']');
        }
        _ => out.push_str(&value.to_compact()),
    }
}

#[allow(dead_code)] // `tests/specs.rs` includes this file for `golden_policies` only.
fn main() -> Result<(), String> {
    println!("{}", golden_policies()?);
    Ok(())
}
