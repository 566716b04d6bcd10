//! Machine-readable views of the experiment results.
//!
//! Results become JSON the same way the hints bundle does: through the
//! hand-rolled encoder in [`janus_json`] (the workspace has no serialisation
//! framework, see `DESIGN.md` §4). Every experiment
//! result struct implements [`ToJson`]; the `janus-bench` binaries write the
//! document next to their stdout tables when `--out <path>` is given, which
//! makes results diffable and plottable without scraping the tables.

use super::{
    rate_per_sec, CapacitySweepResult, ChaosResilienceResult, Fig1aResult, Fig1bResult,
    Fig1cResult, Fig2Result, Fig6Result, Fig7Result, Fig8Result, Fig9Result, FlashScaleResult,
    OverallResult, OverheadResult, ScenarioSweepResult, Table2Result,
};
use janus_json::Value;

/// A machine-readable (JSON) view of an experiment result.
pub trait ToJson {
    /// The result as a JSON document.
    fn to_json(&self) -> Value;
}

fn num(n: f64) -> Value {
    Value::Num(n)
}

fn count(n: usize) -> Value {
    Value::Num(n as f64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().copied().map(Value::Num).collect())
}

/// `(x, y)` point series as `[[x, y], …]`.
fn points(series: &[(f64, f64)]) -> Value {
    Value::Arr(
        series
            .iter()
            .map(|&(x, y)| Value::Arr(vec![num(x), num(y)]))
            .collect(),
    )
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ToJson for Fig1aResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig1a")),
            ("all_cdf", points(&self.all)),
            ("popular_cdf", points(&self.popular)),
            ("popular_fraction", num(self.popular_fraction)),
            ("frac_all_above_60", num(self.frac_all_above_60)),
            ("frac_popular_below_40", num(self.frac_popular_below_40)),
        ])
    }
}

impl ToJson for Fig1bResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig1b")),
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|(name, p1, p99, ratio)| {
                            obj(vec![
                                ("function", text(name)),
                                ("p1_s", num(*p1)),
                                ("p99_s", num(*p99)),
                                ("ratio", num(*ratio)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for Fig1cResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig1c")),
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|(dim, series)| {
                            obj(vec![
                                ("dimension", text(dim)),
                                ("normalized_latency", nums(series)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for Fig2Result {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig2")),
            ("slo_s", num(self.slo_s)),
            ("mean_cpu_reduction", num(self.mean_cpu_reduction)),
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|&(id, e_early, e_late, c_early, c_late)| {
                            obj(vec![
                                ("request", count(id as usize)),
                                ("e2e_early_s", num(e_early)),
                                ("e2e_late_s", num(e_late)),
                                ("cpu_early_vs_optimal", num(c_early)),
                                ("cpu_late_vs_optimal", num(c_late)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for OverallResult {
    fn to_json(&self) -> Value {
        let session = &self.report;
        let policies = session
            .policies
            .iter()
            .map(|p| {
                obj(vec![
                    ("name", text(&p.name)),
                    ("mean_cpu_millicores", num(p.serving.mean_cpu_millicores())),
                    (
                        "normalized_cpu",
                        session
                            .normalized_cpu(&p.name, "Optimal")
                            .map(num)
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "p99_e2e_s",
                        p.serving
                            .e2e_percentile(99.0)
                            .map(|d| num(d.as_secs()))
                            .unwrap_or(Value::Null),
                    ),
                    ("slo_violation_rate", num(p.serving.slo_violation_rate())),
                ])
            })
            .collect();
        let table1 = self
            .table1_row()
            .into_iter()
            .map(|(name, reduction)| {
                obj(vec![
                    ("baseline", text(&name)),
                    ("janus_reduction_percent", num(reduction)),
                ])
            })
            .collect();
        obj(vec![
            ("experiment", text("overall")),
            ("app", text(self.app_name())),
            ("concurrency", count(session.concurrency as usize)),
            ("slo_s", num(session.slo.as_secs())),
            ("requests", count(session.load.requests())),
            ("policies", Value::Arr(policies)),
            ("table1", Value::Arr(table1)),
        ])
    }
}

impl ToJson for Fig6Result {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig6")),
            ("slos_s", nums(&self.slos_s)),
            ("janus_cpu", nums(&self.janus_cpu)),
            ("janus_plus_cpu", nums(&self.janus_plus_cpu)),
            ("janus_time_s", nums(&self.janus_time_s)),
            ("janus_plus_time_s", nums(&self.janus_plus_time_s)),
        ])
    }
}

impl ToJson for Fig7Result {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig7")),
            (
                "cores",
                Value::Arr(self.cores.iter().map(|&c| count(c as usize)).collect()),
            ),
            (
                "timeout",
                Value::Arr(
                    self.timeout
                        .iter()
                        .map(|(pct, series)| {
                            obj(vec![("percentile", num(*pct)), ("seconds", nums(series))])
                        })
                        .collect(),
                ),
            ),
            (
                "resilience",
                Value::Arr(
                    self.resilience
                        .iter()
                        .map(|(conc, series)| {
                            obj(vec![
                                ("concurrency", count(*conc as usize)),
                                ("seconds", nums(series)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for Fig8Result {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig8")),
            ("weights", nums(&self.weights)),
            (
                "series",
                Value::Arr(
                    self.series
                        .iter()
                        .map(|(label, hints, compression)| {
                            obj(vec![
                                ("label", text(label)),
                                (
                                    "hints",
                                    Value::Arr(hints.iter().map(|&h| count(h)).collect()),
                                ),
                                ("compression", nums(compression)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for Fig9Result {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("fig9")),
            ("app", text(&self.app)),
            ("slos_s", nums(&self.slos_s)),
            (
                "series",
                Value::Arr(
                    self.series
                        .iter()
                        .map(|(policy, values)| {
                            obj(vec![
                                ("policy", text(policy)),
                                ("normalized_cpu", nums(values)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for Table2Result {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("table2")),
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|&(weight, cpu, pct)| {
                            obj(vec![
                                ("weight", num(weight)),
                                ("head_millicores", num(cpu)),
                                ("head_percentile", num(pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for OverheadResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("overhead")),
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|(app, mean_us, max_us, bytes, hints, synth_ms)| {
                            obj(vec![
                                ("app", text(app)),
                                ("mean_decision_us", num(*mean_us)),
                                ("max_decision_us", num(*max_us)),
                                ("bundle_bytes", count(*bytes)),
                                ("condensed_hints", count(*hints)),
                                ("synthesis_ms", num(*synth_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for ScenarioSweepResult {
    fn to_json(&self) -> Value {
        let spec = &self.sweep.spec;
        let grid = self
            .sweep
            .points
            .iter()
            .map(|point| {
                let policies = point
                    .policies
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("name", text(&p.name)),
                            ("slo_attainment", num(p.slo_attainment)),
                            ("mean_cpu_millicores", num(p.mean_cpu_millicores)),
                            ("p99_e2e_s", p.p99_e2e_s.map(num).unwrap_or(Value::Null)),
                        ])
                    })
                    .collect();
                obj(vec![
                    (
                        "scenario",
                        text(point.session.scenario.as_deref().unwrap_or_default()),
                    ),
                    ("policies", Value::Arr(policies)),
                ])
            })
            .collect();
        obj(vec![
            ("experiment", text("scenario_sweep")),
            ("app", text(spec.app.short_name())),
            ("concurrency", count(spec.concurrency as usize)),
            ("requests", count(spec.requests)),
            ("base_rps", num(spec.loads_rps[0])),
            ("grid", Value::Arr(grid)),
        ])
    }
}

impl ToJson for CapacitySweepResult {
    fn to_json(&self) -> Value {
        let spec = &self.sweep.spec;
        let cluster = self.cluster();
        let grid = self
            .cells
            .iter()
            .map(|cell| {
                obj(vec![
                    ("scenario", text(&cell.scenario)),
                    ("autoscaler", text(&cell.autoscaler)),
                    ("admission", text(&cell.admission)),
                    ("slo_violation_rate", num(cell.slo_violation_rate)),
                    ("shed_rate", num(cell.shed_rate)),
                    ("admitted", count(cell.admitted)),
                    ("shed", count(cell.shed)),
                    ("node_seconds", num(cell.node_seconds)),
                    ("peak_queue_depth", count(cell.peak_queue_depth)),
                    ("peak_nodes", count(cell.peak_nodes)),
                    ("scale_ups", count(cell.scale_ups)),
                    ("scale_downs", count(cell.scale_downs)),
                    ("wall_ms", num(cell.wall_ms)),
                    ("requests_per_sec", num(cell.requests_per_sec)),
                ])
            })
            .collect();
        obj(vec![
            ("experiment", text("capacity_sweep")),
            ("app", text(spec.app.short_name())),
            ("policy", text(&spec.policies[0])),
            ("requests", count(spec.requests)),
            ("base_rps", num(spec.loads_rps[0])),
            ("initial_nodes", count(cluster.nodes)),
            (
                "node_capacity_mc",
                count(cluster.node_capacity.get() as usize),
            ),
            ("seed", count(spec.seeds[0] as usize)),
            ("grid", Value::Arr(grid)),
        ])
    }
}

impl ToJson for ChaosResilienceResult {
    fn to_json(&self) -> Value {
        let spec = &self.sweep.spec;
        let cells = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("autoscaler", text(&c.autoscaler)),
                    ("admission", text(&c.admission)),
                    ("policy", text(&c.policy)),
                    ("slo_attainment", num(c.slo_attainment)),
                    ("served", num(c.served as f64)),
                    ("shed", num(c.shed as f64)),
                    ("failed", num(c.failed as f64)),
                    ("retried", num(c.retried as f64)),
                    ("nodes_lost", num(c.nodes_lost as f64)),
                    ("node_seconds", num(c.node_seconds)),
                    ("peak_nodes", count(c.peak_nodes)),
                ])
            })
            .collect();
        let wall_ms = self.sweep.total_wall_ms;
        obj(vec![
            ("experiment", text("chaos_resilience")),
            ("app", text(spec.app.short_name())),
            (
                "fault",
                text(&spec.faults.as_deref().unwrap_or_default().join(", ")),
            ),
            ("scenario", text(&spec.scenarios[0])),
            ("seed", num(spec.seeds[0] as f64)),
            ("requests", count(spec.requests)),
            ("cells", Value::Arr(cells)),
            ("wall_ms", num(wall_ms)),
            (
                "cells_per_sec",
                num(rate_per_sec(self.cells.len() as u64, wall_ms)),
            ),
        ])
    }
}

impl ToJson for FlashScaleResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("experiment", text("flash_scale")),
            ("app", text(self.config.app.short_name())),
            ("scenario", text(&self.config.scenario)),
            ("streams", count(self.config.streams)),
            ("requests", count(self.config.requests)),
            ("rps_per_stream", num(self.config.rps_per_stream)),
            ("allocation_mc", count(self.config.allocation_mc as usize)),
            ("autoscaler", text(&self.config.autoscaler)),
            ("admission", text(&self.config.admission)),
            ("seed", count(self.config.seed as usize)),
            ("generated", count(self.generated)),
            ("served", count(self.served)),
            ("shed", count(self.shed)),
            ("failed", count(self.failed)),
            ("slo_attainment", num(self.slo_attainment())),
            ("shed_rate", num(self.shed_rate())),
            ("mean_served_e2e_ms", num(self.mean_served_e2e_ms)),
            ("peak_resident_arrivals", count(self.peak_resident_arrivals)),
            ("peak_queue_depth", count(self.peak_queue_depth)),
            ("peak_inflight", count(self.peak_inflight)),
            ("peak_nodes", count(self.peak_nodes)),
            ("events", count(self.events as usize)),
            ("wall_ms", num(self.wall_ms)),
            ("events_per_sec", num(self.events_per_sec)),
            ("arrivals_per_sec", num(self.arrivals_per_sec)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use janus_json as json;

    #[test]
    fn encoded_results_parse_back_and_carry_the_headline_numbers() {
        let fig1a = experiments::motivation::fig1a_slack_cdf(5000, 3).unwrap();
        let doc = json::parse(&fig1a.to_json().to_pretty()).unwrap();
        assert_eq!(doc.require("experiment").unwrap().as_str(), Some("fig1a"));
        let frac = doc.require("popular_fraction").unwrap().as_f64().unwrap();
        assert!((frac - fig1a.popular_fraction).abs() < 1e-9);
        assert_eq!(
            doc.require("all_cdf").unwrap().as_array().unwrap().len(),
            fig1a.all.len()
        );

        let fig1c = experiments::fig1c_interference();
        let doc = json::parse(&fig1c.to_json().to_pretty()).unwrap();
        assert_eq!(
            doc.require("rows").unwrap().as_array().unwrap().len(),
            fig1c.rows.len()
        );
    }

    #[test]
    fn sweep_results_encode_the_full_grid() {
        use janus_workloads::apps::PaperApp;
        let spec = experiments::SweepSpec {
            scenarios: vec!["poisson".into()],
            policies: vec!["GrandSLAM".into()],
            loads_rps: vec![2.0],
            requests: 20,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..experiments::scenario_sweep::quick_spec(PaperApp::IntelligentAssistant)
        };
        let result = experiments::scenario_sweep::scenario_sweep(&spec).unwrap();
        let doc = json::parse(&result.to_json().to_pretty()).unwrap();
        let grid = doc.require("grid").unwrap().as_array().unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(
            grid[0].require("scenario").unwrap().as_str(),
            Some("poisson")
        );
        let policies = grid[0].require("policies").unwrap().as_array().unwrap();
        assert_eq!(
            policies[0].require("name").unwrap().as_str(),
            Some("GrandSLAM")
        );
        let attainment = policies[0]
            .require("slo_attainment")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((0.0..=1.0).contains(&attainment));
    }
}
