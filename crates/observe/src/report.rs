//! Rendering flight-recorder artefacts.
//!
//! `janus run <exp> --trace out.jsonl` writes one compact JSON document per
//! line; this module reads such an artefact back, replays the records of
//! each policy through the same [`SpanBuilder`] the live `spans` observer
//! uses, collects the tick lines into a [`TimeSeriesReport`], and renders
//! the result as a human-readable report plus a CSV for plotting
//! (`janus report out.jsonl`).

use crate::{Record, SpanBuilder, SpanSummary, TimeSeriesPoint, TimeSeriesReport};
use janus_json::Value;
use std::fmt::Write as _;

/// Everything recovered from one policy's lines of a trace artefact.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTrace {
    /// The policy the lines were recorded under.
    pub policy: String,
    /// Lifecycle record lines replayed (excludes tick lines).
    pub records: u64,
    /// Span breakdowns rebuilt from the record lines.
    pub spans: SpanSummary,
    /// Telemetry rebuilt from the tick lines.
    pub time_series: TimeSeriesReport,
}

/// A decoded trace artefact: one [`PolicyTrace`] per policy, in first-seen
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Per-policy traces, in the order policies first appear.
    pub policies: Vec<PolicyTrace>,
}

struct PolicyAccumulator {
    policy: String,
    records: u64,
    builder: SpanBuilder,
    time_series: TimeSeriesReport,
}

impl TraceReport {
    /// Decode a JSONL trace body. Every line must be a JSON object with a
    /// `policy` label and either a lifecycle record or a `tick` sample;
    /// errors carry the offending line number.
    pub fn from_jsonl(text: &str) -> Result<TraceReport, String> {
        let mut accumulators: Vec<PolicyAccumulator> = Vec::new();
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fail = |e: String| format!("line {}: {e}", index + 1);
            let value = janus_json::parse(line).map_err(&fail)?;
            let policy = value
                .require("policy")
                .map_err(&fail)?
                .as_str()
                .ok_or_else(|| fail("`policy` not a string".to_string()))?
                .to_string();
            let slot = match accumulators.iter().position(|a| a.policy == policy) {
                Some(i) => i,
                None => {
                    accumulators.push(PolicyAccumulator {
                        policy,
                        records: 0,
                        builder: SpanBuilder::new(),
                        time_series: TimeSeriesReport::default(),
                    });
                    accumulators.len() - 1
                }
            };
            let acc = &mut accumulators[slot];
            let tag = value
                .require("type")
                .map_err(&fail)?
                .as_str()
                .ok_or_else(|| fail("`type` not a string".to_string()))?;
            if tag == "tick" {
                let point = TimeSeriesPoint::from_json(&value).map_err(&fail)?;
                acc.time_series.points.push(point);
            } else {
                let record = Record::from_json(&value).map_err(&fail)?;
                acc.builder.observe(&record);
                acc.records += 1;
            }
        }
        if accumulators.is_empty() {
            return Err("trace artefact contains no lines".to_string());
        }
        Ok(TraceReport {
            policies: accumulators
                .into_iter()
                .map(|acc| PolicyTrace {
                    policy: acc.policy,
                    records: acc.records,
                    spans: acc.builder.summary(),
                    time_series: acc.time_series,
                })
                .collect(),
        })
    }

    /// Render the per-policy phase breakdown and fleet telemetry as a
    /// human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for trace in &self.policies {
            let s = &trace.spans;
            let _ = writeln!(out, "policy {}", trace.policy);
            let _ = writeln!(
                out,
                "  requests  arrivals {}  served {}  shed {}  failed {}  retries {}  slo-violations {}",
                s.arrivals, s.served, s.shed, s.failed, s.retries, s.slo_violations
            );
            let _ = writeln!(
                out,
                "  phases    queue {}  cold-start {}  exec {}  retry-lost {}  e2e {}  critical-path {}",
                ms(s.mean_queue_ms),
                ms(s.mean_cold_ms),
                ms(s.mean_exec_ms),
                ms(s.mean_retry_ms),
                ms(s.mean_e2e_ms),
                ms(s.mean_critical_path_ms),
            );
            let points = &trace.time_series.points;
            if points.is_empty() {
                let _ = writeln!(out, "  telemetry (no capacity ticks recorded)");
                continue;
            }
            let zones = points
                .iter()
                .map(|p| p.nodes_per_zone.len())
                .max()
                .unwrap_or(0);
            let peak_queue = points.iter().map(|p| p.queue_depth).max().unwrap_or(0);
            let _ = writeln!(
                out,
                "  telemetry {} ticks  peak queue {}  ticks as `t_ms nodes[zone..] util pool`:",
                points.len(),
                peak_queue
            );
            for point in points {
                let mut zone_cells = String::new();
                for zone in 0..zones {
                    let n = point.nodes_per_zone.get(zone).copied().unwrap_or(0);
                    let _ = write!(zone_cells, "{n} ");
                }
                let _ = writeln!(
                    out,
                    "    {:>10} {}u={:.2} pool={}",
                    fmt_num(point.at_ms),
                    zone_cells,
                    point.utilization,
                    point.pool_size
                );
            }
        }
        out
    }

    /// Render the telemetry as CSV for plotting: one row per tick per
    /// policy, `nodes_per_zone` flattened into per-zone columns. Cells use
    /// the canonical `janus-json` number formatting, so the CSV never
    /// contains NaN or infinity (all means already degrade to 0.0).
    pub fn to_csv(&self) -> String {
        let zones = self
            .policies
            .iter()
            .flat_map(|t| t.time_series.points.iter())
            .map(|p| p.nodes_per_zone.len())
            .max()
            .unwrap_or(0);
        let mut out = String::from("policy,at_ms,queue_depth,inflight,active_nodes");
        for zone in 0..zones {
            let _ = write!(out, ",zone{zone}_nodes");
        }
        out.push_str(",utilization,pool_size,shed,failed,retried\n");
        for trace in &self.policies {
            for point in &trace.time_series.points {
                let _ = write!(
                    out,
                    "{},{},{},{},{}",
                    trace.policy,
                    fmt_num(point.at_ms),
                    point.queue_depth,
                    point.inflight,
                    point.active_nodes
                );
                for zone in 0..zones {
                    let n = point.nodes_per_zone.get(zone).copied().unwrap_or(0);
                    let _ = write!(out, ",{n}");
                }
                let _ = writeln!(
                    out,
                    ",{},{},{},{},{}",
                    fmt_num(point.utilization),
                    point.pool_size,
                    point.shed,
                    point.failed,
                    point.retried
                );
            }
        }
        out
    }
}

/// Rewrite the `policy` label of every line of a JSONL trace to
/// `<policy>@<suffix>`, preserving everything else byte for byte. Grid
/// experiments use this before concatenating per-cell traces into one
/// artefact, so cells that serve the *same* policy stay distinguishable to
/// [`TraceReport::from_jsonl`] (which groups lines by their label).
pub fn qualify_policy(jsonl: &str, suffix: &str) -> Result<String, String> {
    let mut out = String::with_capacity(jsonl.len() + suffix.len() * 8);
    for (index, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", index + 1);
        let value = janus_json::parse(line).map_err(&fail)?;
        let Value::Obj(mut members) = value else {
            return Err(fail("trace line is not a JSON object".to_string()));
        };
        let slot = members
            .iter_mut()
            .find(|(key, _)| key == "policy")
            .ok_or_else(|| fail("trace line has no `policy` label".to_string()))?;
        let Value::Str(policy) = &slot.1 else {
            return Err(fail("`policy` not a string".to_string()));
        };
        slot.1 = Value::Str(format!("{policy}@{suffix}"));
        out.push_str(&Value::Obj(members).to_compact());
        out.push('\n');
    }
    Ok(out)
}

/// Format a number exactly like the `janus-json` encoder would (integers
/// without a trailing `.0`, non-finite values as `null` — which the span
/// math never produces).
fn fmt_num(n: f64) -> String {
    Value::Num(n).to_compact()
}

fn ms(n: f64) -> String {
    format!("{n:.1}ms")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, Observer, ObserverContext, RecordKind, TickSample};
    use janus_simcore::time::{SimDuration, SimTime};

    fn recorded_trace() -> String {
        let mut recorder = FlightRecorder::new(&ObserverContext {
            seed: 1,
            policy: "ia-late".to_string(),
            requests: 4,
            zones: 2,
            slo: SimDuration::from_secs(1.0),
        });
        for id in 0..4u64 {
            recorder.record(&crate::Record {
                at: SimTime::from_millis(id as f64 * 100.0),
                kind: RecordKind::Arrival { request: id },
            });
        }
        recorder.record(&crate::Record {
            at: SimTime::from_millis(150.0),
            kind: RecordKind::Fault {
                kind: "zone-outage",
            },
        });
        recorder.tick(&TickSample {
            at: SimTime::from_millis(200.0),
            queue_depth: 2,
            inflight: 2,
            active_nodes: 2,
            nodes_per_zone: vec![2, 0],
            utilization: 0.75,
            pool_size: 6,
            shed: 0,
            failed: 1,
            retried: 1,
        });
        recorder.record(&crate::Record {
            at: SimTime::from_millis(350.0),
            kind: RecordKind::Completion {
                request: 0,
                e2e: SimDuration::from_millis(350.0),
                slo_met: true,
            },
        });
        recorder.finish().trace.unwrap().to_string()
    }

    #[test]
    fn replaying_a_trace_recovers_spans_and_telemetry() {
        let trace = recorded_trace();
        let report = TraceReport::from_jsonl(&trace).unwrap();
        assert_eq!(report.policies.len(), 1);
        let policy = &report.policies[0];
        assert_eq!(policy.policy, "ia-late");
        assert_eq!(policy.spans.arrivals, 4);
        assert_eq!(policy.spans.served, 1);
        assert_eq!(policy.time_series.len(), 1);
        assert_eq!(policy.time_series.points[0].nodes_per_zone, vec![2, 0]);

        let rendered = report.render();
        assert!(rendered.contains("policy ia-late"));
        assert!(rendered.contains("served 1"));
        assert!(rendered.contains("peak queue 2"));
    }

    #[test]
    fn csv_has_per_zone_columns_and_no_nan_cells() {
        let report = TraceReport::from_jsonl(&recorded_trace()).unwrap();
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("policy,at_ms"));
        assert!(header.contains("zone0_nodes,zone1_nodes"));
        let row = lines.next().unwrap();
        assert!(
            row.starts_with("ia-late,200,2,2,2,2,0,0.75,6,0,1,1"),
            "got: {row}"
        );
        for cell in csv.split([',', '\n']) {
            assert!(
                !matches!(cell, "NaN" | "inf" | "-inf" | "null"),
                "non-finite cell {cell:?} in CSV"
            );
        }
    }

    #[test]
    fn qualified_traces_keep_cells_separate_when_concatenated() {
        let trace = recorded_trace();
        let a = qualify_policy(&trace, "static/admit-all").unwrap();
        let b = qualify_policy(&trace, "utilization/queue-shed").unwrap();
        // Qualification only rewrites the label: stripping the suffix back
        // out recovers the original artefact byte for byte.
        assert_eq!(a.replace("@static/admit-all", ""), trace);
        let merged = format!("{a}{b}");
        let report = TraceReport::from_jsonl(&merged).unwrap();
        let labels: Vec<&str> = report.policies.iter().map(|p| p.policy.as_str()).collect();
        assert_eq!(
            labels,
            vec!["ia-late@static/admit-all", "ia-late@utilization/queue-shed"]
        );
        for policy in &report.policies {
            assert_eq!(policy.spans.arrivals, 4, "each cell keeps its own ledger");
        }
        let err = qualify_policy("{\"type\":\"tick\"}\n", "x").unwrap_err();
        assert!(err.contains("no `policy` label"), "{err}");
        let err = qualify_policy("[1,2]\n", "x").unwrap_err();
        assert!(err.contains("not a JSON object"), "{err}");
    }

    #[test]
    fn malformed_lines_fail_with_the_line_number() {
        let err = TraceReport::from_jsonl("{\"policy\":\"p\",\"type\":\"tick\"}\nnot json\n")
            .unwrap_err();
        assert!(err.starts_with("line 1:"), "got: {err}");
        let err = TraceReport::from_jsonl("").unwrap_err();
        assert!(err.contains("no lines"));
    }
}
