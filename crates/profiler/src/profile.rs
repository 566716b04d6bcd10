//! Execution-time profiles and the timeout / resilience metrics.

use crate::percentiles::Percentile;
use janus_simcore::resources::{CoreGrid, Millicores};
use janus_simcore::stats::percentile_of_sorted;
use janus_simcore::time::SimDuration;
use std::collections::BTreeMap;

/// The execution-time distribution of one function at one concurrency level,
/// sampled across the CPU-allocation grid.
///
/// Internally the profile stores the sorted raw samples per grid allocation,
/// so any percentile can be queried after profiling (the synthesizer explores
/// many percentiles for head functions).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    function: String,
    concurrency: u32,
    grid: CoreGrid,
    /// Sorted execution-time samples (ms) per grid allocation.
    samples: BTreeMap<u32, Vec<f64>>,
}

impl FunctionProfile {
    /// Assemble a profile from per-allocation samples. Every grid point must
    /// be present and non-empty; samples are sorted internally.
    pub fn from_samples(
        function: impl Into<String>,
        concurrency: u32,
        grid: CoreGrid,
        mut samples: BTreeMap<u32, Vec<f64>>,
    ) -> Result<Self, String> {
        for mc in grid.iter() {
            let entry = samples
                .get_mut(&mc.get())
                .ok_or_else(|| format!("missing samples for {mc}"))?;
            if entry.is_empty() {
                return Err(format!("empty sample set for {mc}"));
            }
            if entry.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(format!("non-finite or negative sample for {mc}"));
            }
            entry.sort_by(|a, b| a.total_cmp(b));
        }
        Ok(FunctionProfile {
            function: function.into(),
            concurrency,
            grid,
            samples,
        })
    }

    /// Name of the profiled function.
    pub(crate) fn function(&self) -> &str {
        &self.function
    }

    /// Concurrency (batch size) at which this profile was collected.
    pub(crate) fn concurrency(&self) -> u32 {
        self.concurrency
    }

    /// The CPU-allocation grid.
    pub(crate) fn grid(&self) -> CoreGrid {
        self.grid
    }

    fn sorted_samples(&self, mc: Millicores) -> &[f64] {
        let snapped = self.grid.snap_up(mc);
        self.samples
            .get(&snapped.get())
            .map(Vec::as_slice)
            // janus-lint: allow(unwrap-discipline) — `from_samples` requires samples at every point of `grid.iter()`, and `snap_up` returns one of them on a grid whose span is a whole number of steps (`paper_default`, the grid every session profiles)
            .expect("grid point present by construction")
    }

    /// `L(p, k)`: profiled execution time at percentile `p` and allocation
    /// `k`. Off-grid allocations are snapped up to the next grid point.
    pub fn latency(&self, p: Percentile, mc: Millicores) -> SimDuration {
        SimDuration::from_millis(percentile_of_sorted(self.sorted_samples(mc), p.value()))
    }

    /// `D(p, k) = L(99, k) − L(p, k)`: the **timeout** metric (Eq. 1) — how
    /// much longer than the planned percentile an execution may take before
    /// the P99 tail is reached. Uses the profile's tail percentile `tail`
    /// (P99 by default; P99.9 for stricter SLOs).
    pub fn timeout(&self, p: Percentile, mc: Millicores, tail: Percentile) -> SimDuration {
        (self.latency(tail, mc) - self.latency(p, mc)).saturate()
    }

    /// `R(p, k) = L(p, k) − L(p, Kmax)`: the **resilience** metric (Eq. 2) —
    /// the execution-time reduction achievable by scaling the function from
    /// `k` up to the maximum allocation.
    pub fn resilience(&self, p: Percentile, mc: Millicores) -> SimDuration {
        (self.latency(p, mc) - self.latency(p, self.grid.max)).saturate()
    }

    /// All raw (sorted) samples at one allocation; used by tests and the
    /// motivation figures.
    pub fn raw_samples(&self, mc: Millicores) -> &[f64] {
        self.sorted_samples(mc)
    }
}

/// Profiles of every function of a workflow at one concurrency level.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowProfile {
    workflow: String,
    concurrency: u32,
    grid: CoreGrid,
    functions: Vec<FunctionProfile>,
}

impl WorkflowProfile {
    /// Assemble a workflow profile from per-function profiles (in workflow
    /// order). All profiles must share the same grid and concurrency.
    pub fn new(
        workflow: impl Into<String>,
        concurrency: u32,
        grid: CoreGrid,
        functions: Vec<FunctionProfile>,
    ) -> Result<Self, String> {
        if functions.is_empty() {
            return Err("workflow profile needs at least one function".into());
        }
        for f in &functions {
            if f.grid() != grid {
                return Err(format!(
                    "function {} profiled on a different grid",
                    f.function()
                ));
            }
            if f.concurrency() != concurrency {
                return Err(format!(
                    "function {} profiled at concurrency {} (expected {concurrency})",
                    f.function(),
                    f.concurrency()
                ));
            }
        }
        Ok(WorkflowProfile {
            workflow: workflow.into(),
            concurrency,
            grid,
            functions,
        })
    }

    /// Workflow name.
    pub fn workflow(&self) -> &str {
        &self.workflow
    }

    /// Concurrency (batch size) of this profile.
    pub fn concurrency(&self) -> u32 {
        self.concurrency
    }

    /// The CPU grid shared by all function profiles.
    pub fn grid(&self) -> CoreGrid {
        self.grid
    }

    /// Per-function profiles in workflow order.
    pub fn functions(&self) -> &[FunctionProfile] {
        &self.functions
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Never empty after construction.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Profile of the function at `index`.
    pub fn function(&self, index: usize) -> Option<&FunctionProfile> {
        self.functions.get(index)
    }

    /// The sub-workflow profile starting at function `first` (the remaining
    /// functions after the first `first` finished). `None` when out of range.
    pub fn suffix(&self, first: usize) -> Option<WorkflowProfile> {
        if first >= self.functions.len() {
            return None;
        }
        Some(WorkflowProfile {
            workflow: format!("{}[{}..]", self.workflow, first),
            concurrency: self.concurrency,
            grid: self.grid,
            functions: self.functions[first..].to_vec(),
        })
    }

    /// `Tmin = Σ Li(P_low, Kmax)`: the shortest plausible time budget for the
    /// whole (sub-)workflow (Eq. 3, using the grid's lowest percentile).
    pub fn min_budget(&self, low: Percentile) -> SimDuration {
        self.functions
            .iter()
            .map(|f| f.latency(low, self.grid.max))
            .sum()
    }

    /// `Tmax = Σ Li(tail, Kmin)`: the longest useful time budget (Eq. 3).
    pub fn max_budget(&self, tail: Percentile) -> SimDuration {
        self.functions
            .iter()
            .map(|f| f.latency(tail, self.grid.min))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a deterministic synthetic profile where latency(p, k) =
    /// base * (1000 / k) * (1 + p/100); convenient for exact assertions.
    fn synthetic(function: &str, base: f64) -> FunctionProfile {
        let grid = CoreGrid::paper_default();
        let mut samples = BTreeMap::new();
        for mc in grid.iter() {
            let scale = 1000.0 / f64::from(mc.get());
            // 101 samples from p=0..=100 so percentile_of_sorted hits exact values.
            let s: Vec<f64> = (0..=100)
                .map(|p| base * scale * (1.0 + f64::from(p) / 100.0))
                .collect();
            samples.insert(mc.get(), s);
        }
        FunctionProfile::from_samples(function, 1, grid, samples).unwrap()
    }

    #[test]
    fn latency_is_monotone_in_percentile_and_cores() {
        let p = synthetic("od", 100.0);
        let l_low = p.latency(Percentile::P1, Millicores::new(1000));
        let l_high = p.latency(Percentile::P99, Millicores::new(1000));
        assert!(l_high > l_low);
        let l_fast = p.latency(Percentile::P99, Millicores::new(3000));
        assert!(l_fast < l_high);
    }

    #[test]
    fn timeout_and_resilience_match_definitions() {
        let p = synthetic("od", 100.0);
        let mc = Millicores::new(1500);
        let t = p.timeout(Percentile::P50, mc, Percentile::P99);
        let expected = p.latency(Percentile::P99, mc) - p.latency(Percentile::P50, mc);
        assert!((t.as_millis() - expected.as_millis()).abs() < 1e-9);

        let r = p.resilience(Percentile::P99, mc);
        let expected =
            p.latency(Percentile::P99, mc) - p.latency(Percentile::P99, Millicores::new(3000));
        assert!((r.as_millis() - expected.as_millis()).abs() < 1e-9);

        // Timeout at the tail percentile is zero; resilience at Kmax is zero.
        assert!(p.timeout(Percentile::P99, mc, Percentile::P99).is_zero());
        assert!(p
            .resilience(Percentile::P99, Millicores::new(3000))
            .is_zero());
    }

    #[test]
    fn off_grid_queries_snap_up() {
        let p = synthetic("od", 100.0);
        assert_eq!(
            p.latency(Percentile::P50, Millicores::new(1050)),
            p.latency(Percentile::P50, Millicores::new(1100))
        );
    }

    #[test]
    fn profile_construction_validates_input() {
        let grid = CoreGrid::paper_default();
        // Missing grid point.
        let mut samples = BTreeMap::new();
        samples.insert(1000, vec![1.0]);
        assert!(FunctionProfile::from_samples("x", 1, grid, samples).is_err());
        // Negative sample.
        let mut samples = BTreeMap::new();
        for mc in grid.iter() {
            samples.insert(mc.get(), vec![-1.0]);
        }
        assert!(FunctionProfile::from_samples("x", 1, grid, samples).is_err());
    }

    #[test]
    fn workflow_profile_budget_range() {
        let wf = WorkflowProfile::new(
            "ia",
            1,
            CoreGrid::paper_default(),
            vec![
                synthetic("od", 100.0),
                synthetic("qa", 80.0),
                synthetic("ts", 60.0),
            ],
        )
        .unwrap();
        assert_eq!(wf.len(), 3);
        let tmin = wf.min_budget(Percentile::P1);
        let tmax = wf.max_budget(Percentile::P99);
        assert!(tmin < tmax);
        // Tmin at Kmax: (100+80+60) * (1000/3000) * 1.01
        assert!((tmin.as_millis() - 240.0 / 3.0 * 1.01).abs() < 1.0);
        // Tmax at Kmin: 240 * 1.99
        assert!((tmax.as_millis() - 240.0 * 1.99).abs() < 1.0);
    }

    #[test]
    fn workflow_profile_suffix_drops_finished_functions() {
        let wf = WorkflowProfile::new(
            "ia",
            1,
            CoreGrid::paper_default(),
            vec![
                synthetic("od", 100.0),
                synthetic("qa", 80.0),
                synthetic("ts", 60.0),
            ],
        )
        .unwrap();
        let tail = wf.suffix(1).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.function(0).unwrap().function(), "qa");
        assert!(wf.suffix(3).is_none());
    }

    #[test]
    fn workflow_profile_rejects_mismatched_functions() {
        let grid = CoreGrid::paper_default();
        let other_grid = CoreGrid::new(Millicores::new(1000), Millicores::new(2000), 100).unwrap();
        let mut samples = BTreeMap::new();
        for mc in other_grid.iter() {
            samples.insert(mc.get(), vec![1.0, 2.0]);
        }
        let mismatched = FunctionProfile::from_samples("od", 1, other_grid, samples).unwrap();
        assert!(WorkflowProfile::new("ia", 1, grid, vec![mismatched]).is_err());
        assert!(WorkflowProfile::new("ia", 1, grid, vec![]).is_err());
        let ok = synthetic("od", 10.0);
        assert!(
            WorkflowProfile::new("ia", 2, grid, vec![ok]).is_err(),
            "concurrency mismatch"
        );
    }
}
