//! `janus report <results-dir>`: aggregate a content-addressed results
//! store into analysis-grade tables.
//!
//! A results directory accumulates cells across sweeps, specs and sessions
//! (the store is keyed by cell content, not by which run produced it), so
//! this report is the cross-run analysis stage: every valid cell in the
//! directory becomes one row per policy, and the rows roll up into the
//! marginal views the paper's evaluation reads from — mean SLO attainment
//! by policy × scenario and policy × offered load, plus per-policy
//! SLO-violation and shed-rate rollups. [`ResultsReport::to_csv`] exports
//! the flat row table for external plotting, using the same canonical
//! number formatting as every other CSV artefact in the workspace.

use crate::experiments::sweep::PolicyCell;
use janus_json::Value;
use janus_results::{ResultsStore, StoredCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One policy's figures at one stored cell, with the cell's axes decoded
/// from its spec document.
#[derive(Debug, Clone)]
pub struct ResultsRow {
    /// Arrival scenario, if the cell pinned one.
    pub scenario: Option<String>,
    /// Offered load in requests/s, if the cell pinned one.
    pub rps: Option<f64>,
    /// Engine seed.
    pub seed: u64,
    /// Autoscaler axis, if set.
    pub autoscaler: Option<String>,
    /// Admission axis, if set.
    pub admission: Option<String>,
    /// Fault-injector axis, if set.
    pub fault: Option<String>,
    /// The policy's published figures.
    pub cell: PolicyCell,
    /// Wall-clock cost of the cell's original run, in ms.
    pub wall_ms: f64,
}

/// The aggregated view of a results directory.
#[derive(Debug, Clone)]
pub struct ResultsReport {
    /// Directory the report was built from (for the header line).
    pub dir: String,
    /// Stored cells the report covers.
    pub cells: usize,
    /// One row per (cell, policy), sorted by axes then policy.
    pub rows: Vec<ResultsRow>,
}

fn opt_str(doc: &Value, key: &str) -> Result<Option<String>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

fn decode_rows(stored: &StoredCell) -> Result<Vec<ResultsRow>, String> {
    let cell = &stored.cell;
    let seed_raw = cell
        .require("seed")?
        .as_f64()
        .ok_or_else(|| "field `seed` must be a number".to_string())?;
    // janus-lint: allow(float-cmp) — exactness is the point: fract() must be exactly zero for an integer-valued f64
    if seed_raw < 0.0 || seed_raw.fract() != 0.0 {
        return Err(format!(
            "field `seed` must be a non-negative integer, got {seed_raw}"
        ));
    }
    let rps = match cell.get("rps") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| "field `rps` must be a number".to_string())?,
        ),
    };
    let scenario = opt_str(cell, "scenario")?;
    let autoscaler = opt_str(cell, "autoscaler")?;
    let admission = opt_str(cell, "admission")?;
    let fault = opt_str(cell, "fault")?;

    let policies = stored
        .result
        .require("policies")?
        .as_array()
        .ok_or_else(|| "field `policies` must be an array".to_string())?;
    policies
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            let policy = PolicyCell::from_json(doc).map_err(|e| format!("`policies[{i}]`: {e}"))?;
            Ok(ResultsRow {
                scenario: scenario.clone(),
                rps,
                seed: seed_raw as u64,
                autoscaler: autoscaler.clone(),
                admission: admission.clone(),
                fault: fault.clone(),
                cell: policy,
                wall_ms: stored.wall_ms,
            })
        })
        .collect()
}

/// Canonical cell text for a table: `-` for an unset axis.
fn axis(v: &Option<String>) -> &str {
    v.as_deref().unwrap_or("-")
}

/// Canonical number text, byte-compatible with the JSON encoder (the same
/// convention `TraceReport::to_csv` uses).
fn fmt_num(n: f64) -> String {
    Value::Num(n).to_compact()
}

fn fmt_opt_num(n: Option<f64>) -> String {
    n.map(fmt_num).unwrap_or_default()
}

/// Mean of a non-empty slice (the grouping code never builds empty groups).
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

impl ResultsReport {
    /// Aggregate every valid cell in `store`. Rows come back sorted by
    /// (scenario, rps, seed, autoscaler, admission, fault, policy), so the
    /// report is deterministic regardless of directory enumeration order.
    /// A directory with no cells is an error: it is almost always a
    /// mistyped store path, and an empty report would read as a clean one.
    pub fn from_store(store: &ResultsStore) -> Result<Self, String> {
        let cells = store.load_all()?;
        if cells.is_empty() {
            return Err(format!(
                "results store {} holds no cells; fill one with \
                 `janus sweep <spec> --results DIR`",
                store.dir().display()
            ));
        }
        let mut rows = Vec::new();
        for stored in &cells {
            rows.extend(decode_rows(stored).map_err(|e| format!("cell `{}`: {e}", stored.key))?);
        }
        rows.sort_by(|a, b| {
            a.scenario
                .cmp(&b.scenario)
                .then(
                    a.rps
                        .unwrap_or(f64::NEG_INFINITY)
                        .total_cmp(&b.rps.unwrap_or(f64::NEG_INFINITY)),
                )
                .then(a.seed.cmp(&b.seed))
                .then(a.autoscaler.cmp(&b.autoscaler))
                .then(a.admission.cmp(&b.admission))
                .then(a.fault.cmp(&b.fault))
                .then(a.cell.name.cmp(&b.cell.name))
        });
        Ok(Self {
            dir: store.dir().display().to_string(),
            cells: cells.len(),
            rows,
        })
    }

    /// Policy names present in the rows, sorted.
    pub fn policies(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.rows.iter().map(|r| r.cell.name.as_str()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Mean SLO attainment grouped by `group_of(row)` × policy.
    fn attainment_marginal(
        &self,
        group_of: impl Fn(&ResultsRow) -> String,
    ) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
        let mut groups: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
        for row in &self.rows {
            groups
                .entry(group_of(row))
                .or_default()
                .entry(row.cell.name.clone())
                .or_default()
                .push(row.cell.slo_attainment);
        }
        groups
    }

    fn render_marginal(
        &self,
        out: &mut String,
        title: &str,
        axis_header: &str,
        group_of: impl Fn(&ResultsRow) -> String,
    ) {
        let policies = self.policies();
        let _ = writeln!(out, "## {title}");
        let _ = write!(out, "{axis_header:>14}");
        for policy in &policies {
            let _ = write!(out, " {policy:>12}");
        }
        let _ = writeln!(out);
        for (group, by_policy) in self.attainment_marginal(group_of) {
            let _ = write!(out, "{group:>14}");
            for policy in &policies {
                match by_policy.get(*policy) {
                    Some(values) => {
                        let _ = write!(out, " {:>12.1}", mean(values) * 100.0);
                    }
                    None => {
                        let _ = write!(out, " {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }

    /// The analysis tables: per-policy rollup, then mean SLO attainment by
    /// policy × scenario and by policy × offered load.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Results store `{}`: {} cells, {} rows",
            self.dir,
            self.cells,
            self.rows.len()
        );
        let _ = writeln!(out, "## Policy rollup");
        let _ = writeln!(
            out,
            "{:>12} {:>6} {:>10} {:>12} {:>11} {:>12}",
            "policy", "rows", "attain %", "slo-viol %", "shed %", "mean cpu mc"
        );
        for policy in self.policies() {
            let rows: Vec<&ResultsRow> =
                self.rows.iter().filter(|r| r.cell.name == policy).collect();
            let attain: Vec<f64> = rows.iter().map(|r| r.cell.slo_attainment).collect();
            let cpu: Vec<f64> = rows.iter().map(|r| r.cell.mean_cpu_millicores).collect();
            let offered: u64 = rows
                .iter()
                .map(|r| r.cell.served + r.cell.shed + r.cell.failed)
                .sum();
            let shed: u64 = rows.iter().map(|r| r.cell.shed).sum();
            let shed_rate = if offered > 0 {
                shed as f64 / offered as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:>12} {:>6} {:>10.1} {:>12.1} {:>11.1} {:>12.1}",
                policy,
                rows.len(),
                mean(&attain) * 100.0,
                (1.0 - mean(&attain)) * 100.0,
                shed_rate * 100.0,
                mean(&cpu)
            );
        }
        self.render_marginal(
            &mut out,
            "Mean SLO attainment %, policy x scenario",
            "scenario",
            |row| axis(&row.scenario).to_string(),
        );
        self.render_marginal(
            &mut out,
            "Mean SLO attainment %, policy x load",
            "rps",
            |row| row.rps.map(fmt_num).unwrap_or_else(|| "-".to_string()),
        );
        out
    }

    /// The flat row table as CSV, one line per (cell, policy), using the
    /// canonical JSON number formatting (so re-imports parse exactly).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,rps,seed,autoscaler,admission,fault,policy,slo_attainment,\
             mean_cpu_millicores,p99_e2e_s,served,shed,failed,retried,nodes_lost,\
             node_seconds,wall_ms\n",
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                row.scenario.as_deref().unwrap_or_default(),
                fmt_opt_num(row.rps),
                row.seed,
                row.autoscaler.as_deref().unwrap_or_default(),
                row.admission.as_deref().unwrap_or_default(),
                row.fault.as_deref().unwrap_or_default(),
                row.cell.name,
                fmt_num(row.cell.slo_attainment),
                fmt_num(row.cell.mean_cpu_millicores),
                fmt_opt_num(row.cell.p99_e2e_s),
                row.cell.served,
                row.cell.shed,
                row.cell.failed,
                row.cell.retried,
                row.cell.nodes_lost,
                fmt_opt_num(row.cell.node_seconds),
                fmt_num(row.wall_ms),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::RESULTS_EPOCH;

    fn cell_doc(scenario: &str, rps: f64, seed: f64) -> Value {
        Value::Obj(vec![
            ("app".to_string(), Value::Str("assistant".to_string())),
            ("concurrency".to_string(), Value::Num(1.0)),
            (
                "policies".to_string(),
                Value::Arr(vec![Value::Str("Janus".to_string())]),
            ),
            ("requests".to_string(), Value::Num(30.0)),
            ("rps".to_string(), Value::Num(rps)),
            ("scenario".to_string(), Value::Str(scenario.to_string())),
            ("seed".to_string(), Value::Num(seed)),
        ])
    }

    fn result_doc(attain: f64, shed: u64) -> Value {
        let cell = PolicyCell {
            name: "Janus".into(),
            slo_attainment: attain,
            mean_cpu_millicores: 400.0,
            p99_e2e_s: Some(1.5),
            served: 28 - shed,
            shed,
            failed: 2,
            retried: 0,
            nodes_lost: 0,
            node_seconds: None,
        };
        Value::Obj(vec![(
            "policies".to_string(),
            Value::Arr(vec![cell.to_json()]),
        )])
    }

    #[test]
    fn aggregates_cells_into_sorted_rows_and_marginals() {
        let dir = std::env::temp_dir().join(format!("janus-results-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        store
            .save(
                &cell_doc("poisson", 4.0, 11.0),
                RESULTS_EPOCH,
                20.0,
                &result_doc(0.9, 4),
            )
            .unwrap();
        store
            .save(
                &cell_doc("poisson", 2.0, 7.0),
                RESULTS_EPOCH,
                10.0,
                &result_doc(1.0, 0),
            )
            .unwrap();
        store
            .save(
                &cell_doc("bursty", 2.0, 7.0),
                RESULTS_EPOCH,
                15.0,
                &result_doc(0.8, 2),
            )
            .unwrap();

        let report = ResultsReport::from_store(&store).unwrap();
        assert_eq!(report.cells, 3);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.policies(), vec!["Janus"]);
        // Sorted by scenario, then load.
        let order: Vec<(String, f64)> = report
            .rows
            .iter()
            .map(|r| (r.scenario.clone().unwrap(), r.rps.unwrap()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("bursty".to_string(), 2.0),
                ("poisson".to_string(), 2.0),
                ("poisson".to_string(), 4.0)
            ]
        );

        let shown = report.render();
        assert!(shown.contains("Policy rollup"), "{shown}");
        assert!(shown.contains("policy x scenario"), "{shown}");
        assert!(shown.contains("policy x load"), "{shown}");
        assert!(shown.contains("bursty"), "{shown}");
        // Mean attainment over the three rows is 90%.
        assert!(shown.contains("90.0"), "{shown}");

        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rows: {csv}");
        assert!(lines[0].starts_with("scenario,rps,seed,"), "{csv}");
        assert!(
            lines[1].starts_with("bursty,2,7,,,,Janus,0.8,400,1.5,"),
            "{csv}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_a_malformed_cell_loudly() {
        let dir =
            std::env::temp_dir().join(format!("janus-results-report-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).unwrap();
        // A directory with no cells at all.
        let err = ResultsReport::from_store(&store).unwrap_err();
        assert!(err.contains(&dir.display().to_string()), "{err}");
        assert!(err.contains("holds no cells"), "{err}");
        assert!(err.contains("janus sweep <spec> --results DIR"), "{err}");
        // A result document with no `policies` member.
        store
            .save(
                &cell_doc("poisson", 2.0, 7.0),
                RESULTS_EPOCH,
                10.0,
                &Value::Obj(vec![]),
            )
            .unwrap();
        let err = ResultsReport::from_store(&store).unwrap_err();
        assert!(err.contains("`policies`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
