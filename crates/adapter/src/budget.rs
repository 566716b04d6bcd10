//! Remaining-time-budget derivation.
//!
//! "When a function in the application DAG finishes, the serverless platform
//! collects the execution time of that function and derives the time budget
//! for the rest of the workflow" (§I). The budget tracker is the tiny piece
//! of per-request state that makes this derivation: SLO minus elapsed time.

use janus_simcore::time::{SimDuration, SimTime};

/// Tracks the time budget of one in-flight workflow request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetTracker {
    slo: SimDuration,
    admitted_at: SimTime,
    consumed: SimDuration,
}

impl BudgetTracker {
    /// Start tracking a request admitted at `admitted_at` with the given SLO.
    pub fn new(slo: SimDuration, admitted_at: SimTime) -> Self {
        BudgetTracker {
            slo,
            admitted_at,
            consumed: SimDuration::ZERO,
        }
    }

    /// The end-to-end SLO of the request.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// Admission time.
    pub fn admitted_at(&self) -> SimTime {
        self.admitted_at
    }

    /// Record that a function consumed `elapsed` of the budget (execution
    /// time plus any startup delay attributed to the request).
    pub fn consume(&mut self, elapsed: SimDuration) {
        self.consumed += elapsed.saturate();
    }

    /// Total time consumed so far.
    pub fn consumed(&self) -> SimDuration {
        self.consumed
    }

    /// Remaining budget based on the recorded consumption (never negative).
    pub fn remaining(&self) -> SimDuration {
        (self.slo - self.consumed).saturate()
    }

    /// Remaining budget based on wall-clock `now` (never negative). Useful
    /// when queueing or scheduling delays should also count against the SLO.
    pub fn remaining_at(&self, now: SimTime) -> SimDuration {
        (self.slo - now.saturating_since(self.admitted_at)).saturate()
    }

    /// True once the recorded consumption exceeds the SLO.
    pub fn exhausted(&self) -> bool {
        self.consumed > self.slo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_decreases_as_functions_finish() {
        let mut b = BudgetTracker::new(SimDuration::from_secs(3.0), SimTime::from_millis(100.0));
        assert_eq!(b.remaining().as_millis(), 3000.0);
        b.consume(SimDuration::from_millis(800.0));
        assert_eq!(b.remaining().as_millis(), 2200.0);
        b.consume(SimDuration::from_millis(700.0));
        assert_eq!(b.remaining().as_millis(), 1500.0);
        assert_eq!(b.consumed().as_millis(), 1500.0);
        assert!(!b.exhausted());
        assert_eq!(b.slo().as_secs(), 3.0);
    }

    #[test]
    fn overrun_saturates_at_zero_and_flags_exhaustion() {
        let mut b = BudgetTracker::new(SimDuration::from_secs(1.0), SimTime::ZERO);
        b.consume(SimDuration::from_millis(1500.0));
        assert_eq!(b.remaining(), SimDuration::ZERO);
        assert!(b.exhausted());
    }

    #[test]
    fn wall_clock_budget_accounts_for_queueing() {
        let b = BudgetTracker::new(SimDuration::from_secs(2.0), SimTime::from_millis(1000.0));
        assert_eq!(
            b.remaining_at(SimTime::from_millis(1000.0)).as_millis(),
            2000.0
        );
        assert_eq!(
            b.remaining_at(SimTime::from_millis(2500.0)).as_millis(),
            500.0
        );
        assert_eq!(
            b.remaining_at(SimTime::from_millis(9999.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn negative_consumption_is_ignored() {
        let mut b = BudgetTracker::new(SimDuration::from_secs(1.0), SimTime::ZERO);
        b.consume(SimDuration::from_millis(-50.0));
        assert_eq!(b.remaining().as_millis(), 1000.0);
    }
}
