//! Pre-interned metric handles for the serving loops, and the loops' own
//! per-run tallies.
//!
//! A serving run observes millions of events; paying a string hash and a
//! registry map lock per sample would dominate the simulation itself. A
//! [`ServingMetrics`] bundle resolves every serving metric name **once**
//! (at session setup) into [`CounterHandle`] / [`StreamingHandle`]s.
//!
//! Nothing reads those metrics until a run ends, so the executor and the
//! open-loop simulation do not record through the handles per event
//! either. Each run counts into a `ServingTally` it owns: plain `u64`
//! counters, and the two latency streams moved out of the registry with
//! [`StreamingHandle::take`] and folded into without a lock. The tally
//! flushes into the handles once, when it is dropped at the end of the run
//! (an early error return included). The registry then holds exactly what
//! per-event recording through the handles would have left there.
//!
//! Latency samples go to **streaming** series deliberately: sweeps run many
//! sessions and the exact per-request data already lives in each
//! [`ServingReport`](crate::outcome::ServingReport), so the registry-side
//! series only has to answer "how many samples, what shape" in O(1) memory.

use crate::outcome::RequestOutcome;
use janus_simcore::metrics::{CounterHandle, MetricsRegistry, StreamingHandle};
use janus_simcore::stats::StreamingSummary;
use janus_simcore::time::SimDuration;

/// The per-event serving metrics, pre-interned against one registry.
///
/// Cloning is cheap (handles are `Arc`s); every clone feeds the same
/// underlying metrics.
#[derive(Debug, Clone)]
pub struct ServingMetrics {
    /// Requests admitted (closed-loop replays and open-loop arrivals).
    pub requests: CounterHandle,
    /// Function executions completed.
    pub functions: CounterHandle,
    /// Pod acquisitions that paid a startup (cold-start / specialisation)
    /// delay.
    pub cold_starts: CounterHandle,
    /// Requests that finished over their SLO.
    pub slo_violations: CounterHandle,
    /// Requests shed by admission control at arrival (never served).
    pub shed: CounterHandle,
    /// Admitted requests lost to injected faults (retry budget exhausted).
    pub failed: CounterHandle,
    /// Fault-interrupted requests that re-enqueued and started over.
    pub retried: CounterHandle,
    /// Autoscaler scale-up actions applied.
    pub scale_ups: CounterHandle,
    /// Autoscaler scale-down (drain) actions applied.
    pub scale_downs: CounterHandle,
    /// Per-function execution times in milliseconds (streaming).
    pub function_ms: StreamingHandle,
    /// End-to-end request latencies in milliseconds (streaming).
    pub e2e_ms: StreamingHandle,
}

impl ServingMetrics {
    /// Registry name of [`requests`](Self::requests).
    pub const REQUESTS: &'static str = "serving.requests";
    /// Registry name of [`functions`](Self::functions).
    pub const FUNCTIONS: &'static str = "serving.functions";
    /// Registry name of [`cold_starts`](Self::cold_starts).
    pub const COLD_STARTS: &'static str = "serving.cold_starts";
    /// Registry name of [`slo_violations`](Self::slo_violations).
    pub const SLO_VIOLATIONS: &'static str = "serving.slo_violations";
    /// Registry name of [`shed`](Self::shed).
    pub const SHED: &'static str = "serving.shed";
    /// Registry name of [`failed`](Self::failed).
    pub const FAILED: &'static str = "serving.failed";
    /// Registry name of [`retried`](Self::retried).
    pub const RETRIED: &'static str = "serving.retried";
    /// Registry name of [`scale_ups`](Self::scale_ups).
    pub const SCALE_UPS: &'static str = "serving.scale_ups";
    /// Registry name of [`scale_downs`](Self::scale_downs).
    pub const SCALE_DOWNS: &'static str = "serving.scale_downs";
    /// Registry name of [`function_ms`](Self::function_ms).
    pub const FUNCTION_MS: &'static str = "serving.function_ms";
    /// Registry name of [`e2e_ms`](Self::e2e_ms).
    pub const E2E_MS: &'static str = "serving.e2e_ms";

    /// Resolve every serving metric against `registry` — the one-time
    /// setup-cost half of the hot-path contract.
    pub fn intern(registry: &MetricsRegistry) -> Self {
        ServingMetrics {
            requests: registry.counter_handle(Self::REQUESTS),
            functions: registry.counter_handle(Self::FUNCTIONS),
            cold_starts: registry.counter_handle(Self::COLD_STARTS),
            slo_violations: registry.counter_handle(Self::SLO_VIOLATIONS),
            shed: registry.counter_handle(Self::SHED),
            failed: registry.counter_handle(Self::FAILED),
            retried: registry.counter_handle(Self::RETRIED),
            scale_ups: registry.counter_handle(Self::SCALE_UPS),
            scale_downs: registry.counter_handle(Self::SCALE_DOWNS),
            function_ms: registry.streaming_handle(Self::FUNCTION_MS),
            e2e_ms: registry.streaming_handle(Self::E2E_MS),
        }
    }
}

/// One serving run's metrics, owned by the loop: counters in plain fields
/// and the two latency streams taken out of the registry. Dropping the
/// tally flushes it into the [`ServingMetrics`] it was made from; without
/// one it counts and discards.
#[derive(Debug)]
pub(crate) struct ServingTally<'m> {
    sink: Option<&'m ServingMetrics>,
    /// See [`ServingMetrics::requests`].
    pub(crate) requests: u64,
    /// See [`ServingMetrics::functions`].
    pub(crate) functions: u64,
    /// See [`ServingMetrics::cold_starts`].
    pub(crate) cold_starts: u64,
    /// See [`ServingMetrics::slo_violations`].
    pub(crate) slo_violations: u64,
    /// See [`ServingMetrics::shed`].
    pub(crate) shed: u64,
    /// See [`ServingMetrics::failed`].
    pub(crate) failed: u64,
    /// See [`ServingMetrics::retried`].
    pub(crate) retried: u64,
    /// See [`ServingMetrics::scale_ups`].
    pub(crate) scale_ups: u64,
    /// See [`ServingMetrics::scale_downs`].
    pub(crate) scale_downs: u64,
    function_ms: Option<StreamingSummary>,
    e2e_ms: Option<StreamingSummary>,
}

impl<'m> ServingTally<'m> {
    /// A zeroed tally for one run, taking `sink`'s streams if there is one.
    pub(crate) fn new(sink: Option<&'m ServingMetrics>) -> Self {
        ServingTally {
            sink,
            requests: 0,
            functions: 0,
            cold_starts: 0,
            slo_violations: 0,
            shed: 0,
            failed: 0,
            retried: 0,
            scale_ups: 0,
            scale_downs: 0,
            function_ms: sink.map(|m| m.function_ms.take()),
            e2e_ms: sink.map(|m| m.e2e_ms.take()),
        }
    }

    /// One function execution finished after running for `exec`.
    #[inline]
    pub(crate) fn function(&mut self, exec: SimDuration) {
        self.functions += 1;
        if let Some(stream) = self.function_ms.as_mut() {
            stream.record(exec.as_millis());
        }
    }

    /// One request was served: its end-to-end latency sample and, if it
    /// missed the SLO, a violation. Tallies what
    /// [`RequestOutcome::record_into`] records.
    #[inline]
    pub(crate) fn served(&mut self, outcome: &RequestOutcome) {
        if let Some(stream) = self.e2e_ms.as_mut() {
            stream.record(outcome.e2e.as_millis());
        }
        if !outcome.slo_met {
            self.slo_violations += 1;
        }
    }
}

impl Drop for ServingTally<'_> {
    fn drop(&mut self) {
        let Some(m) = self.sink else {
            return;
        };
        m.requests.incr(self.requests);
        m.functions.incr(self.functions);
        m.cold_starts.incr(self.cold_starts);
        m.slo_violations.incr(self.slo_violations);
        m.shed.incr(self.shed);
        m.failed.incr(self.failed);
        m.retried.incr(self.retried);
        m.scale_ups.incr(self.scale_ups);
        m.scale_downs.incr(self.scale_downs);
        if let Some(stream) = self.function_ms.take() {
            m.function_ms.restore(stream);
        }
        if let Some(stream) = self.e2e_ms.take() {
            m.e2e_ms.restore(stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_twice_shares_the_underlying_metrics() {
        let registry = MetricsRegistry::new();
        let a = ServingMetrics::intern(&registry);
        let b = ServingMetrics::intern(&registry);
        assert!(a.requests.shares_storage(&b.requests));
        assert!(a.slo_violations.shares_storage(&b.slo_violations));
        assert!(a.e2e_ms.shares_storage(&b.e2e_ms));
        a.requests.incr(2);
        b.requests.incr(3);
        assert_eq!(registry.counter(ServingMetrics::REQUESTS), 5);
        a.e2e_ms.record(100.0);
        assert_eq!(b.e2e_ms.count(), 1);
    }
}
