//! The Optimal oracle — the upper bound every late-binding policy is
//! normalised against in §V.
//!
//! The oracle is told, per request, the exact execution-time factor of every
//! function (information no real policy has before running them) and selects
//! the cheapest allocation on the CPU grid whose *actual* end-to-end latency
//! meets the SLO. For the three-function chains of the paper the search is
//! exhaustive (21³ combinations); longer workflows fall back to the same
//! budget-quantised dynamic program used elsewhere.

use janus_platform::policy::{RequestContext, SizingPolicy};
use janus_simcore::interference::InterferenceModel;
use janus_simcore::resources::{CoreGrid, Millicores};
use janus_simcore::time::SimDuration;
use janus_workloads::function::FunctionModel;
use janus_workloads::request::RequestInput;
use janus_workloads::workflow::Workflow;
use std::collections::HashMap;

/// Oracle with perfect per-request knowledge.
#[derive(Debug)]
pub struct OptimalOracle {
    name: String,
    grid: CoreGrid,
    /// Pre-computed optimal allocation per request id.
    plans: HashMap<u64, Vec<Millicores>>,
    fallback: Vec<Millicores>,
}

impl OptimalOracle {
    /// Pre-compute the optimal plan for every request.
    ///
    /// `concurrency` and `interference` must match the executor configuration
    /// (the closed-loop executor runs each request in isolation, so the
    /// co-location degree is 1).
    pub fn new(
        workflow: &Workflow,
        requests: &[RequestInput],
        slo: SimDuration,
        concurrency: u32,
        grid: CoreGrid,
        interference: &InterferenceModel,
    ) -> Self {
        let plans = requests
            .iter()
            .map(|r| {
                (
                    r.id,
                    Self::plan_request(workflow, r, slo, concurrency, grid, interference),
                )
            })
            .collect();
        OptimalOracle {
            name: "Optimal".to_string(),
            grid,
            plans,
            fallback: vec![grid.max; workflow.len()],
        }
    }

    /// Actual execution time of function `index` at allocation `k` for this
    /// request (co-location degree 1, matching the closed-loop evaluation).
    fn actual_latency(
        function: &FunctionModel,
        request: &RequestInput,
        index: usize,
        k: Millicores,
        concurrency: u32,
        interference: &InterferenceModel,
    ) -> f64 {
        function
            .execution_time(k, concurrency, request.factor(index), 1, interference)
            .as_millis()
    }

    fn plan_request(
        workflow: &Workflow,
        request: &RequestInput,
        slo: SimDuration,
        concurrency: u32,
        grid: CoreGrid,
        interference: &InterferenceModel,
    ) -> Vec<Millicores> {
        let n = workflow.len();
        let slo_ms = slo.as_millis();
        // Per-function latency at every grid allocation.
        let latencies: Vec<Vec<f64>> = workflow
            .functions()
            .iter()
            .enumerate()
            .map(|(i, function)| {
                grid.iter()
                    .map(|k| {
                        Self::actual_latency(function, request, i, k, concurrency, interference)
                    })
                    .collect()
            })
            .collect();
        let points: Vec<Millicores> = grid.iter().collect();

        if n <= 4 {
            // Exhaustive search (21^n combinations at most 194k for n=4).
            let mut best: Option<(u32, Vec<Millicores>)> = None;
            let mut indices = vec![0usize; n];
            loop {
                let total_lat: f64 = (0..n).map(|i| latencies[i][indices[i]]).sum();
                if total_lat <= slo_ms {
                    let cores: u32 = indices.iter().map(|&i| points[i].get()).sum();
                    if best.as_ref().map(|(c, _)| cores < *c).unwrap_or(true) {
                        best = Some((cores, indices.iter().map(|&i| points[i]).collect()));
                    }
                }
                // Advance the odometer.
                let mut pos = 0;
                loop {
                    if pos == n {
                        break;
                    }
                    indices[pos] += 1;
                    if indices[pos] < points.len() {
                        break;
                    }
                    indices[pos] = 0;
                    pos += 1;
                }
                if pos == n {
                    break;
                }
            }
            return best
                .map(|(_, plan)| plan)
                .unwrap_or_else(|| vec![grid.max; n]);
        }

        // Longer workflows: budget-quantised DP (1 ms).
        let horizon = slo_ms.floor().max(0.0) as usize;
        let mut next: Vec<Option<u32>> = vec![None; horizon + 1];
        // The grid index of the cheapest feasible allocation per (i, b).
        let mut choices: Vec<Vec<Option<usize>>> = vec![vec![None; horizon + 1]; n];
        for i in (0..n).rev() {
            let mut current: Vec<Option<u32>> = vec![None; horizon + 1];
            for b in 0..=horizon {
                let mut best: Option<(u32, usize)> = None;
                for (ki, &k) in points.iter().enumerate() {
                    let lat = latencies[i][ki];
                    if lat > b as f64 {
                        continue;
                    }
                    let tail = if i + 1 == n {
                        Some(0)
                    } else {
                        next[(b as f64 - lat).floor() as usize]
                    };
                    if let Some(tc) = tail {
                        let total = tc + k.get();
                        if best.map(|(t, _)| total < t).unwrap_or(true) {
                            best = Some((total, ki));
                        }
                    }
                }
                if let Some((total, ki)) = best {
                    current[b] = Some(total);
                    choices[i][b] = Some(ki);
                }
            }
            next = current;
        }
        if next[horizon].is_none() {
            return vec![grid.max; n];
        }
        let mut plan = Vec::with_capacity(n);
        let mut b = horizon;
        for i in 0..n {
            // A feasible start keeps every later step feasible, so the
            // top-of-grid fallback never fires.
            let ki = choices[i][b].unwrap_or(points.len() - 1);
            plan.push(points[ki]);
            b = (b as f64 - latencies[i][ki]).floor().max(0.0) as usize;
        }
        plan
    }
}

impl SizingPolicy for OptimalOracle {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_late_binding(&self) -> bool {
        true
    }

    fn size_next(
        &mut self,
        ctx: &RequestContext,
        index: usize,
        _remaining_budget: SimDuration,
    ) -> Millicores {
        self.plans
            .get(&ctx.request_id)
            .unwrap_or(&self.fallback)
            .get(index)
            .copied()
            .unwrap_or(self.grid.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_platform::executor::{ClosedLoopExecutor, ExecutorConfig};
    use janus_workloads::apps::intelligent_assistant;
    use janus_workloads::request::RequestInputGenerator;

    fn setup(n: usize) -> (Workflow, Vec<RequestInput>) {
        let ia = intelligent_assistant();
        let reqs = RequestInputGenerator::new(21, SimDuration::ZERO).generate(&ia, n);
        (ia, reqs)
    }

    /// The sizes the oracle serves `request` with, one `size_next` call per
    /// function of the three-function chain.
    fn served_plan(
        oracle: &mut OptimalOracle,
        request: &RequestInput,
        slo: SimDuration,
    ) -> Vec<Millicores> {
        let ctx = RequestContext {
            request_id: request.id,
            slo,
            concurrency: 1,
            workflow_len: 3,
        };
        (0..3).map(|i| oracle.size_next(&ctx, i, slo)).collect()
    }

    #[test]
    fn oracle_plans_meet_the_slo_exactly_when_feasible() {
        let (ia, reqs) = setup(100);
        let slo = SimDuration::from_secs(3.0);
        let interference = InterferenceModel::paper_calibrated();
        let mut oracle =
            OptimalOracle::new(&ia, &reqs, slo, 1, CoreGrid::paper_default(), &interference);
        for r in &reqs {
            let plan = served_plan(&mut oracle, r, slo);
            let e2e: f64 = plan
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    ia.function(i)
                        .unwrap()
                        .execution_time(k, 1, r.factor(i), 1, &interference)
                        .as_millis()
                })
                .sum();
            let at_kmax: f64 = (0..3)
                .map(|i| {
                    ia.function(i)
                        .unwrap()
                        .execution_time(Millicores::new(3000), 1, r.factor(i), 1, &interference)
                        .as_millis()
                })
                .sum();
            if at_kmax <= 3000.0 {
                assert!(e2e <= 3000.0, "feasible request must meet SLO, got {e2e}");
            }
        }
    }

    #[test]
    fn oracle_never_overshoots_more_than_one_step_of_slack() {
        // For each request, removing one grid step from any function of the
        // oracle plan must violate the SLO (otherwise the plan wasn't minimal).
        let (ia, reqs) = setup(40);
        let slo = SimDuration::from_secs(3.0);
        let interference = InterferenceModel::paper_calibrated();
        let grid = CoreGrid::paper_default();
        let mut oracle = OptimalOracle::new(&ia, &reqs, slo, 1, grid, &interference);
        for r in &reqs {
            let plan = served_plan(&mut oracle, r, slo);
            let total: u32 = plan.iter().map(|k| k.get()).sum();
            if total == 3 * grid.min.get() {
                continue; // already the global minimum
            }
            // Try every single-step reduction; all must be infeasible OR the
            // plan wasn't optimal for total cores (tolerate ties where another
            // combination with the same total exists).
            let e2e = |p: &[Millicores]| -> f64 {
                p.iter()
                    .enumerate()
                    .map(|(i, &k)| {
                        ia.function(i)
                            .unwrap()
                            .execution_time(k, 1, r.factor(i), 1, &interference)
                            .as_millis()
                    })
                    .sum()
            };
            for i in 0..plan.len() {
                if plan[i] == grid.min {
                    continue;
                }
                let mut reduced = plan.clone();
                reduced[i] = Millicores::new(plan[i].get() - grid.step);
                assert!(
                    e2e(&reduced) > 3000.0,
                    "reducing function {i} kept the SLO — plan was not minimal"
                );
            }
        }
    }

    #[test]
    fn oracle_is_cheapest_among_slo_meeting_policies_in_serving() {
        let (ia, reqs) = setup(200);
        let slo = SimDuration::from_secs(3.0);
        let exec = ClosedLoopExecutor::new(
            ia.clone(),
            ExecutorConfig {
                count_startup_delays: false,
                ..ExecutorConfig::paper_serving(slo, 1)
            },
        );
        let interference = exec.config().interference.clone();
        let mut oracle =
            OptimalOracle::new(&ia, &reqs, slo, 1, CoreGrid::paper_default(), &interference);
        let report = exec.run(&mut oracle, &reqs);
        assert!(
            report.slo_violation_rate() < 0.02,
            "oracle respects the SLO"
        );
        // The oracle can never use fewer than 3 * Kmin millicores.
        assert!(report.mean_cpu_millicores() >= 3000.0);
        // And must be cheaper than provisioning everything at Kmax.
        assert!(report.mean_cpu_millicores() < 9000.0);
    }

    #[test]
    fn unknown_requests_fall_back_to_kmax() {
        let (ia, reqs) = setup(1);
        let interference = InterferenceModel::paper_calibrated();
        let mut oracle = OptimalOracle::new(
            &ia,
            &reqs,
            SimDuration::from_secs(3.0),
            1,
            CoreGrid::paper_default(),
            &interference,
        );
        let ctx = RequestContext {
            request_id: 999,
            slo: SimDuration::from_secs(3.0),
            concurrency: 1,
            workflow_len: 3,
        };
        assert_eq!(
            oracle.size_next(&ctx, 0, SimDuration::from_secs(3.0)),
            Millicores::new(3000)
        );
        assert!(oracle.is_late_binding());
    }
}
