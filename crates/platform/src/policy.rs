//! The sizing-policy interface.
//!
//! A sizing policy answers one question, repeatedly: *with how many millicores
//! should the next function of this request run?* Early-binding policies
//! answer it the same way for every request (sizes are fixed at deployment);
//! late-binding policies answer it from the remaining time budget, which is
//! exactly the information barrier the paper's hint mechanism bridges.

use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;
use janus_workloads::workflow::Workflow;

/// Per-request, policy-visible context.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestContext {
    /// Request identifier.
    pub request_id: u64,
    /// End-to-end latency SLO of the workflow.
    pub slo: SimDuration,
    /// Batch size (concurrency) the request is served at.
    pub concurrency: u32,
    /// Number of functions in the workflow.
    pub workflow_len: usize,
}

/// A function-sizing policy.
///
/// The executor calls [`SizingPolicy::size_next`] immediately before each
/// function of the request starts (for early-binding policies this simply
/// returns the deployment-time size) and [`SizingPolicy::on_complete`] right
/// after it finishes with the observed execution time — the only runtime
/// information the platform shares with any policy.
pub trait SizingPolicy: Send {
    /// Human-readable policy name ("ORION", "Janus", …) used in reports.
    fn name(&self) -> &str;

    /// Whether the policy adapts sizes at runtime (late binding) or fixes
    /// them at deployment time (early binding).
    fn is_late_binding(&self) -> bool;

    /// The CPU allocation for function `index` of this request, given the
    /// remaining time budget before the SLO.
    fn size_next(
        &mut self,
        ctx: &RequestContext,
        index: usize,
        remaining_budget: SimDuration,
    ) -> Millicores;

    /// Notification that function `index` finished after `observed` execution
    /// time. Default: ignore (early-binding policies don't use it).
    fn on_complete(&mut self, _ctx: &RequestContext, _index: usize, _observed: SimDuration) {}

    /// Called once when a request is admitted; lets stateful policies reset
    /// per-request bookkeeping. Default: nothing.
    fn on_admit(&mut self, _ctx: &RequestContext) {}

    /// Mean time the policy spent inside `size_next`, in microseconds, if the
    /// policy tracks it (Janus does, for §V-H, over a sample of its
    /// decisions). Default: `None`.
    fn mean_decision_time_us(&self) -> Option<f64> {
        None
    }

    /// A new instance in the state this one was built in, as if no request
    /// had ever been served — or `None` if the policy cannot make one.
    /// Sweeps build a policy once per distinct set-up, keep it unserved, and
    /// serve every grid point that shares the set-up from a fresh instance,
    /// so an instance must carry no state from requests it served. Default:
    /// `None` (the policy is rebuilt for every run).
    fn fresh(&self) -> Option<Box<dyn SizingPolicy>> {
        None
    }
}

/// The simplest early-binding policy: a fixed per-function allocation vector,
/// applied identically to every request. Both GrandSLAM-style baselines and
/// unit tests build on this.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedSizingPolicy {
    name: String,
    sizes: Vec<Millicores>,
}

impl FixedSizingPolicy {
    /// Create a fixed policy from per-function sizes.
    ///
    /// The size vector must be non-empty — `size_next` answers for *every*
    /// function index (out-of-range indices fall back to the last size), so
    /// an empty vector would leave it with no answer at all.
    pub fn new(name: impl Into<String>, sizes: Vec<Millicores>) -> Result<Self, String> {
        let name = name.into();
        if sizes.is_empty() {
            return Err(format!("fixed policy `{name}` needs at least one size"));
        }
        Ok(FixedSizingPolicy { name, sizes })
    }

    /// Create a fixed policy assigning the same size to every function of
    /// `workflow` (GrandSLAM's "identical sizes" constraint). Fails on an
    /// empty workflow for the same reason as [`new`](Self::new).
    pub fn uniform(
        name: impl Into<String>,
        workflow: &Workflow,
        size: Millicores,
    ) -> Result<Self, String> {
        Self::new(name, vec![size; workflow.len()])
    }

    /// The configured sizes.
    pub fn sizes(&self) -> &[Millicores] {
        &self.sizes
    }

    /// Total configured allocation across the workflow.
    pub fn total(&self) -> Millicores {
        self.sizes.iter().copied().sum()
    }
}

impl SizingPolicy for FixedSizingPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_late_binding(&self) -> bool {
        false
    }

    fn size_next(
        &mut self,
        _ctx: &RequestContext,
        index: usize,
        _remaining_budget: SimDuration,
    ) -> Millicores {
        self.sizes
            .get(index)
            .or_else(|| self.sizes.last())
            .copied()
            // janus-lint: allow(unwrap-discipline) — `new` rejects an empty size vector, so `last()` is always `Some`
            .expect("constructor guarantees a non-empty size vector")
    }

    fn fresh(&self) -> Option<Box<dyn SizingPolicy>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_workloads::apps::intelligent_assistant;

    fn ctx() -> RequestContext {
        RequestContext {
            request_id: 0,
            slo: SimDuration::from_secs(3.0),
            concurrency: 1,
            workflow_len: 3,
        }
    }

    #[test]
    fn fixed_policy_returns_configured_sizes() {
        let mut p = FixedSizingPolicy::new(
            "fixed",
            vec![
                Millicores::new(2000),
                Millicores::new(1500),
                Millicores::new(1000),
            ],
        )
        .unwrap();
        assert_eq!(p.name(), "fixed");
        assert!(!p.is_late_binding());
        assert_eq!(
            p.size_next(&ctx(), 0, SimDuration::from_secs(3.0)),
            Millicores::new(2000)
        );
        assert_eq!(
            p.size_next(&ctx(), 2, SimDuration::from_secs(0.1)),
            Millicores::new(1000)
        );
        // Out-of-range index falls back to the last size instead of panicking.
        assert_eq!(
            p.size_next(&ctx(), 9, SimDuration::ZERO),
            Millicores::new(1000)
        );
        assert_eq!(p.total(), Millicores::new(4500));
        assert_eq!(p.mean_decision_time_us(), None);
        let mut fresh = p.fresh().expect("fixed policies make fresh instances");
        assert_eq!(fresh.name(), "fixed");
        assert_eq!(
            fresh.size_next(&ctx(), 1, SimDuration::ZERO),
            Millicores::new(1500)
        );
    }

    #[test]
    fn uniform_policy_matches_workflow_length() {
        let ia = intelligent_assistant();
        let p = FixedSizingPolicy::uniform("grandslam", &ia, Millicores::new(2200)).unwrap();
        assert_eq!(p.sizes().len(), 3);
        assert!(p.sizes().iter().all(|&s| s == Millicores::new(2200)));
    }

    #[test]
    fn empty_size_vectors_are_rejected_instead_of_panicking_later() {
        let err = FixedSizingPolicy::new("empty", Vec::new()).unwrap_err();
        assert!(err.contains("at least one size"), "{err}");
    }
}
