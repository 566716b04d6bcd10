//! Hints condensing — Algorithm 2 of the paper.
//!
//! The raw sweep of Algorithm 1 produces one hint per millisecond of time
//! budget, but the decision variables are discrete (CPU grid, batch sizes),
//! so long runs of adjacent budgets share the same head-function size
//! (Insight 5). Condensing fuses each run into a single
//! `⟨t_start, t_end, size⟩` row and drops the non-head fields (Insight 6),
//! achieving the ≥ 98 % compression ratios reported in §V-F without changing
//! any adaptation decision.

use crate::generation::RawHint;
use crate::hints::CondensedHint;

/// Fuse raw hints that share the same head-function size into range rows.
///
/// The input may be in any order; rows are returned sorted by ascending
/// budget and are non-overlapping. Runs are broken when the head size
/// changes, exactly as in Algorithm 2 (which scans in sorted order and fuses
/// while `k₁` stays constant).
pub fn condense(raw: &[RawHint]) -> Vec<CondensedHint> {
    if raw.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<&RawHint> = raw.iter().collect();
    sorted.sort_by(|a, b| a.budget_ms.total_cmp(&b.budget_ms));

    let mut rows: Vec<CondensedHint> = Vec::new();
    let mut run_start = sorted[0];
    let mut run_end = sorted[0];
    for hint in sorted.iter().skip(1) {
        let same_size = hint.head_cores() == run_start.head_cores();
        if same_size {
            run_end = hint;
        } else {
            rows.push(CondensedHint {
                start_ms: run_start.budget_ms,
                end_ms: run_end.budget_ms,
                head_cores: run_start.head_cores(),
                head_percentile: run_start.head_percentile,
            });
            run_start = hint;
            run_end = hint;
        }
    }
    rows.push(CondensedHint {
        start_ms: run_start.budget_ms,
        end_ms: run_end.budget_ms,
        head_cores: run_start.head_cores(),
        head_percentile: run_start.head_percentile,
    });
    close_gaps(&mut rows);
    rows
}

/// The budget axis is continuous at runtime but the sweep is discrete:
/// close the gaps between adjacent rows so a budget falling between two
/// sweep points resolves to the *smaller* budget's plan (which is always
/// SLO-safe, since more budget never requires more resources).
pub(crate) fn close_gaps(rows: &mut [CondensedHint]) {
    for i in 0..rows.len().saturating_sub(1) {
        let next_start = rows[i + 1].start_ms;
        if rows[i].end_ms < next_start {
            rows[i].end_ms = f64::from_bits(next_start.to_bits() - 1);
        }
    }
}

impl RawHint {
    /// The head function's planned allocation (`k₁`), the only size retained
    /// after condensing.
    pub fn head_cores(&self) -> janus_simcore::resources::Millicores {
        self.allocation
            .first()
            .copied()
            .unwrap_or(janus_simcore::resources::Millicores::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_profiler::percentiles::Percentile;
    use janus_simcore::resources::Millicores;

    fn hint(budget: f64, head: u32) -> RawHint {
        RawHint {
            budget_ms: budget,
            allocation: vec![Millicores::new(head), Millicores::new(1000)],
            head_percentile: Percentile::P99,
            expected_cost: f64::from(head) + 1000.0,
        }
    }

    #[test]
    fn empty_input_yields_no_rows() {
        assert!(condense(&[]).is_empty());
    }

    #[test]
    fn runs_of_identical_head_sizes_are_fused() {
        let raw: Vec<RawHint> = vec![
            hint(1000.0, 3000),
            hint(1001.0, 3000),
            hint(1002.0, 3000),
            hint(1003.0, 2000),
            hint(1004.0, 2000),
            hint(1005.0, 1000),
        ];
        let rows = condense(&raw);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].start_ms, 1000.0);
        // Gap closing extends the row up to (but not including) the next start.
        assert!(rows[0].end_ms >= 1002.0 && rows[0].end_ms < 1003.0);
        assert_eq!(rows[0].head_cores, Millicores::new(3000));
        assert_eq!(rows[1].start_ms, 1003.0);
        assert!(rows[1].end_ms >= 1004.0 && rows[1].end_ms < 1005.0);
        assert_eq!(rows[2].start_ms, 1005.0);
        assert_eq!(rows[2].end_ms, 1005.0);
        assert_eq!(rows[2].head_cores, Millicores::new(1000));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let raw: Vec<RawHint> = vec![hint(1005.0, 1000), hint(1000.0, 3000), hint(1001.0, 3000)];
        let rows = condense(&raw);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].head_cores, Millicores::new(3000));
        assert!(rows[0].start_ms < rows[1].start_ms);
    }

    #[test]
    fn alternating_sizes_are_not_fused() {
        let raw: Vec<RawHint> = vec![hint(1.0, 1000), hint(2.0, 2000), hint(3.0, 1000)];
        let rows = condense(&raw);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn single_hint_becomes_a_degenerate_range() {
        let rows = condense(&[hint(42.0, 1500)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].start_ms, 42.0);
        assert_eq!(rows[0].end_ms, 42.0);
    }

    #[test]
    fn condensing_preserves_every_budgets_decision() {
        // Property: for every raw hint, looking up its budget in the condensed
        // rows yields the same head size.
        let raw: Vec<RawHint> = (0..500)
            .map(|i| {
                let head = if i < 200 {
                    3000
                } else if i < 350 {
                    2000
                } else {
                    1000
                };
                hint(1000.0 + i as f64, head)
            })
            .collect();
        let rows = condense(&raw);
        assert_eq!(rows.len(), 3);
        for h in &raw {
            let row = rows
                .iter()
                .find(|r| h.budget_ms >= r.start_ms && h.budget_ms <= r.end_ms)
                .expect("every raw budget is covered");
            assert_eq!(row.head_cores, h.head_cores());
        }
    }
}
