//! Hints tables: the artefact the developer submits to the provider.
//!
//! A condensed hints table has three fields per row — `start`, `end`, `size`
//! (§III-C): any sub-workflow whose remaining time budget falls between
//! `start` and `end` should have its head function provisioned with `size`
//! CPU. This reproduction additionally records the head percentile the
//! synthesizer chose for the row (needed for Table II and useful for
//! observability); the adapter ignores it.

use janus_profiler::percentiles::Percentile;
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;

/// One condensed hint row: budgets in `[start_ms, end_ms]` map to `head_cores`.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedHint {
    /// Inclusive lower bound of the time-budget range (ms).
    pub start_ms: f64,
    /// Inclusive upper bound of the time-budget range (ms).
    pub end_ms: f64,
    /// CPU allocation for the head function of the sub-workflow.
    pub head_cores: Millicores,
    /// Percentile the synthesizer planned the head function at (diagnostic).
    pub head_percentile: Percentile,
}

impl CondensedHint {
    /// Whether `budget` falls inside this row's range.
    pub(crate) fn covers(&self, budget: SimDuration) -> bool {
        let b = budget.as_millis();
        b >= self.start_ms && b <= self.end_ms
    }
}

/// Outcome of a hints-table lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LookupOutcome {
    /// The budget fell inside a row's range.
    Hit {
        /// CPU allocation for the head function.
        head_cores: Millicores,
    },
    /// The budget exceeded the largest profiled budget; any allocation works,
    /// so the minimum allocation is returned. Counted as a hit.
    AboveRange {
        /// CPU allocation for the head function (the table's cheapest row).
        head_cores: Millicores,
    },
    /// The budget is below the smallest profiled budget — the hint tables
    /// cannot guarantee the SLO. The adapter scales to `Kmax` (§III-D) and
    /// counts a miss.
    Miss,
}

impl LookupOutcome {
    /// True for any outcome that yields a usable allocation without a miss.
    pub fn is_hit(&self) -> bool {
        !matches!(self, LookupOutcome::Miss)
    }
}

/// A condensed hints table for one sub-workflow suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct HintsTable {
    /// Index of the first remaining function: the table to consult after the
    /// first `suffix_start` functions of the workflow finished. `0` is the
    /// table used at request admission.
    pub suffix_start: usize,
    /// Number of raw (pre-condensing) hints this table was built from.
    pub raw_hint_count: usize,
    /// Condensed rows sorted by ascending `start_ms`, non-overlapping.
    rows: Vec<CondensedHint>,
}

impl HintsTable {
    /// Build a table from condensed rows (must be sorted and non-overlapping).
    pub fn new(
        suffix_start: usize,
        raw_hint_count: usize,
        rows: Vec<CondensedHint>,
    ) -> Result<Self, String> {
        for w in rows.windows(2) {
            if w[0].end_ms >= w[1].start_ms {
                return Err(format!(
                    "hint rows overlap or are unsorted: [{}, {}] then [{}, {}]",
                    w[0].start_ms, w[0].end_ms, w[1].start_ms, w[1].end_ms
                ));
            }
        }
        for r in &rows {
            if r.start_ms > r.end_ms {
                return Err(format!(
                    "hint row has start {} > end {}",
                    r.start_ms, r.end_ms
                ));
            }
        }
        Ok(HintsTable {
            suffix_start,
            raw_hint_count,
            rows,
        })
    }

    /// Condensed rows.
    pub fn rows(&self) -> &[CondensedHint] {
        &self.rows
    }

    /// Number of condensed rows (the "number of hints" of Figure 8).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows (no feasible budget at all).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Smallest budget covered by the table (ms).
    pub fn min_budget_ms(&self) -> Option<f64> {
        self.rows.first().map(|r| r.start_ms)
    }

    /// Largest budget covered by the table (ms).
    pub fn max_budget_ms(&self) -> Option<f64> {
        self.rows.last().map(|r| r.end_ms)
    }

    /// Search the table for the given remaining time budget (§III-D).
    ///
    /// Binary search over the sorted, non-overlapping ranges; O(log n) with
    /// n ≤ ~150 rows, which is what keeps the online adaptation under the
    /// paper's 3 ms decision budget.
    pub fn lookup(&self, budget: SimDuration) -> LookupOutcome {
        let Some(last) = self.rows.last() else {
            return LookupOutcome::Miss;
        };
        let b = budget.as_millis();
        if b > last.end_ms {
            return LookupOutcome::AboveRange {
                head_cores: last.head_cores,
            };
        }
        // partition_point: first row whose end_ms >= b.
        let idx = self.rows.partition_point(|r| r.end_ms < b);
        if idx < self.rows.len() && self.rows[idx].covers(budget) {
            LookupOutcome::Hit {
                head_cores: self.rows[idx].head_cores,
            }
        } else {
            LookupOutcome::Miss
        }
    }
}

/// The full set of hints a developer submits for one workflow at one
/// concurrency level and one head-function weight: a condensed table per
/// sub-workflow suffix.
#[derive(Debug, Clone, PartialEq)]
pub struct HintsBundle {
    /// Workflow name.
    pub workflow: String,
    /// Concurrency (batch size) the profiles were collected at.
    pub concurrency: u32,
    /// Head-function weight `W` used during generation (Insight 4).
    pub weight: f64,
    /// Tables indexed by suffix start (0 = full workflow).
    pub tables: Vec<HintsTable>,
}

impl HintsBundle {
    /// The table to consult once `finished` functions have completed.
    pub fn table_after(&self, finished: usize) -> Option<&HintsTable> {
        self.tables.iter().find(|t| t.suffix_start == finished)
    }

    /// Total number of condensed hints across all tables (Figure 8's y-axis).
    pub fn total_hints(&self) -> usize {
        self.tables.iter().map(HintsTable::len).sum()
    }

    /// Approximate in-memory footprint of the condensed tables in bytes
    /// (three f64-sized fields plus the allocation per row, mirroring the
    /// §V-H memory-footprint measurement).
    pub fn approx_size_bytes(&self) -> usize {
        self.total_hints() * std::mem::size_of::<CondensedHint>()
    }

    /// Serialise the bundle to JSON — the artefact "submitted to the adapter
    /// on the serverless platform".
    pub fn to_json(&self) -> Result<String, String> {
        use crate::json::Value;
        let tables = self
            .tables
            .iter()
            .map(|t| {
                let rows = t
                    .rows()
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("start_ms".into(), Value::Num(r.start_ms)),
                            ("end_ms".into(), Value::Num(r.end_ms)),
                            (
                                "head_cores".into(),
                                Value::Num(f64::from(r.head_cores.get())),
                            ),
                            (
                                "head_percentile".into(),
                                Value::Num(r.head_percentile.value()),
                            ),
                        ])
                    })
                    .collect();
                Value::Obj(vec![
                    ("suffix_start".into(), Value::Num(t.suffix_start as f64)),
                    ("raw_hint_count".into(), Value::Num(t.raw_hint_count as f64)),
                    ("rows".into(), Value::Arr(rows)),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            ("workflow".into(), Value::Str(self.workflow.clone())),
            (
                "concurrency".into(),
                Value::Num(f64::from(self.concurrency)),
            ),
            ("weight".into(), Value::Num(self.weight)),
            ("tables".into(), Value::Arr(tables)),
        ]);
        Ok(doc.to_pretty())
    }

    /// Parse a bundle from JSON, re-validating every table invariant.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let doc = crate::json::parse(s)?;
        let num = |v: &crate::json::Value, field: &str| -> Result<f64, String> {
            v.require(field)?
                .as_f64()
                .ok_or_else(|| format!("field `{field}` is not a number"))
        };
        // `as` casts would silently saturate negative / fractional values;
        // reject them instead, like a typed deserializer would.
        let uint = |v: &crate::json::Value, field: &str| -> Result<u64, String> {
            let n = num(v, field)?;
            // janus-lint: allow(float-cmp) — exactness is the point: fract() must be exactly zero for an integer-valued f64
            if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64) {
                return Err(format!(
                    "field `{field}` must be a non-negative integer, got {n}"
                ));
            }
            Ok(n as u64)
        };
        let workflow = doc
            .require("workflow")?
            .as_str()
            .ok_or("field `workflow` is not a string")?
            .to_string();
        let concurrency = u32::try_from(uint(&doc, "concurrency")?)
            .map_err(|_| "field `concurrency` exceeds u32::MAX".to_string())?;
        let weight = num(&doc, "weight")?;
        let mut tables = Vec::new();
        for t in doc
            .require("tables")?
            .as_array()
            .ok_or("field `tables` is not an array")?
        {
            let mut rows = Vec::new();
            for r in t
                .require("rows")?
                .as_array()
                .ok_or("field `rows` is not an array")?
            {
                rows.push(CondensedHint {
                    start_ms: num(r, "start_ms")?,
                    end_ms: num(r, "end_ms")?,
                    head_cores: Millicores::new(
                        u32::try_from(uint(r, "head_cores")?)
                            .map_err(|_| "field `head_cores` exceeds u32::MAX".to_string())?,
                    ),
                    head_percentile: Percentile::new(num(r, "head_percentile")?)?,
                });
            }
            tables.push(HintsTable::new(
                uint(t, "suffix_start")? as usize,
                uint(t, "raw_hint_count")? as usize,
                rows,
            )?);
        }
        Ok(HintsBundle {
            workflow,
            concurrency,
            weight,
            tables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(start: f64, end: f64, mc: u32) -> CondensedHint {
        CondensedHint {
            start_ms: start,
            end_ms: end,
            head_cores: Millicores::new(mc),
            head_percentile: Percentile::P99,
        }
    }

    fn table() -> HintsTable {
        HintsTable::new(
            0,
            3000,
            vec![
                row(1000.0, 1499.0, 3000),
                row(1500.0, 2199.0, 2000),
                row(2200.0, 4000.0, 1000),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_hits_the_covering_row() {
        let t = table();
        assert_eq!(
            t.lookup(SimDuration::from_millis(1200.0)),
            LookupOutcome::Hit {
                head_cores: Millicores::new(3000)
            }
        );
        assert_eq!(
            t.lookup(SimDuration::from_millis(1500.0)),
            LookupOutcome::Hit {
                head_cores: Millicores::new(2000)
            }
        );
        assert_eq!(
            t.lookup(SimDuration::from_millis(2199.0)),
            LookupOutcome::Hit {
                head_cores: Millicores::new(2000)
            }
        );
        assert_eq!(
            t.lookup(SimDuration::from_millis(3000.0)),
            LookupOutcome::Hit {
                head_cores: Millicores::new(1000)
            }
        );
    }

    #[test]
    fn lookup_below_range_misses_and_above_range_uses_cheapest() {
        let t = table();
        assert_eq!(
            t.lookup(SimDuration::from_millis(500.0)),
            LookupOutcome::Miss
        );
        assert!(!t.lookup(SimDuration::from_millis(500.0)).is_hit());
        assert_eq!(
            t.lookup(SimDuration::from_millis(9999.0)),
            LookupOutcome::AboveRange {
                head_cores: Millicores::new(1000)
            }
        );
        assert!(t.lookup(SimDuration::from_millis(9999.0)).is_hit());
    }

    #[test]
    fn gaps_between_rows_are_misses() {
        let t = HintsTable::new(
            0,
            10,
            vec![row(1000.0, 1100.0, 2000), row(1500.0, 1600.0, 1000)],
        )
        .unwrap();
        assert_eq!(
            t.lookup(SimDuration::from_millis(1300.0)),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn overlapping_or_inverted_rows_are_rejected() {
        assert!(HintsTable::new(
            0,
            10,
            vec![row(1000.0, 1600.0, 2000), row(1500.0, 1700.0, 1000)]
        )
        .is_err());
        assert!(HintsTable::new(0, 10, vec![row(1000.0, 900.0, 2000)]).is_err());
        let empty = HintsTable::new(0, 0, vec![]).unwrap();
        assert_eq!(
            empty.lookup(SimDuration::from_millis(100.0)),
            LookupOutcome::Miss
        );
        assert!(empty.is_empty());
        assert_eq!(empty.min_budget_ms(), None);
    }

    #[test]
    fn compression_ratio_reflects_condensing() {
        let t = table();
        assert_eq!((t.raw_hint_count, t.len()), (3000, 3));
        assert_eq!(t.min_budget_ms(), Some(1000.0));
        assert_eq!(t.max_budget_ms(), Some(4000.0));
    }

    #[test]
    fn bundle_roundtrips_through_json() {
        let bundle = HintsBundle {
            workflow: "IA".to_string(),
            concurrency: 1,
            weight: 1.0,
            tables: vec![
                table(),
                HintsTable::new(1, 100, vec![row(500.0, 900.0, 1500)]).unwrap(),
            ],
        };
        assert_eq!(bundle.total_hints(), 4);
        assert!(bundle.approx_size_bytes() > 0);
        assert!(bundle.table_after(1).is_some());
        assert!(bundle.table_after(2).is_none());
        let json = bundle.to_json().unwrap();
        let parsed = HintsBundle::from_json(&json).unwrap();
        assert_eq!(parsed, bundle);
    }

    #[test]
    fn from_json_rejects_saturating_numeric_fields() {
        let base = HintsBundle {
            workflow: "IA".to_string(),
            concurrency: 1,
            weight: 1.0,
            tables: vec![HintsTable::new(0, 10, vec![row(500.0, 900.0, 1500)]).unwrap()],
        };
        let json = base.to_json().unwrap();
        // A negative allocation must not silently become 0 mc.
        let err =
            HintsBundle::from_json(&json.replace("\"head_cores\": 1500", "\"head_cores\": -5"))
                .unwrap_err();
        assert!(err.contains("head_cores"), "{err}");
        // A fractional concurrency must not silently truncate.
        let err =
            HintsBundle::from_json(&json.replace("\"concurrency\": 1", "\"concurrency\": 2.7"))
                .unwrap_err();
        assert!(err.contains("concurrency"), "{err}");
        // Non-finite weights encode as null, which the typed reader rejects.
        let mut nan_bundle = base.clone();
        nan_bundle.weight = f64::NAN;
        let nan_json = nan_bundle.to_json().unwrap();
        assert!(!nan_json.contains("NaN"), "output stays valid JSON");
        let err = HintsBundle::from_json(&nan_json).unwrap_err();
        assert!(err.contains("weight"), "{err}");
    }
}
