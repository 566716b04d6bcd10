//! Per-request sampled inputs.
//!
//! For runtime resource adaptation to be meaningful the *same* request must
//! see a consistent world regardless of which sizing policy serves it: if the
//! image happens to contain 14 objects, OD is slow for every policy. A
//! [`RequestInput`] therefore captures the per-function random factors
//! (working-set scale × noise) drawn once per request; policies only change
//! the resource knobs.
//!
//! This also makes policy comparisons paired (the same 1000 requests are
//! replayed under every policy), which is how the paper's evaluation compares
//! systems on identical workloads.

use crate::workflow::Workflow;
use janus_simcore::rng::SimRng;
use janus_simcore::time::SimDuration;
use std::fmt;

/// One step of an arrival process: the gap between consecutive requests.
///
/// The sampler draws from the *caller's* RNG, so the generator below can
/// interleave gap draws with per-request factor draws in one reproducible
/// stream — exactly the stream the original Poisson-only generator produced.
/// Stateful processes (on/off phases, position in a replayed trace) keep
/// their state in the sampler; a fresh sampler restarts the process.
///
/// Implementations live here (the closed-loop and Poisson built-ins) and in
/// `janus-scenarios` (diurnal, bursty, flash-crowd, trace replay).
pub trait InterArrivalSampler: fmt::Debug + Send {
    /// The gap between the previous arrival and the next one. May consume
    /// any number of RNG draws (including none).
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration;
}

/// Poisson arrivals with a fixed mean inter-arrival time: one exponential
/// draw per request. A non-positive mean degenerates to the closed loop
/// (all requests at t = 0) without touching the RNG, matching the historical
/// `RequestInputGenerator::new(seed, SimDuration::ZERO)` behaviour.
#[derive(Debug, Clone)]
pub struct PoissonGaps {
    mean_inter_arrival: SimDuration,
}

impl PoissonGaps {
    /// Sampler with the given mean inter-arrival time.
    pub fn new(mean_inter_arrival: SimDuration) -> Self {
        PoissonGaps { mean_inter_arrival }
    }
}

impl InterArrivalSampler for PoissonGaps {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        if self.mean_inter_arrival.as_millis() > 0.0 {
            SimDuration::from_millis(rng.exponential(self.mean_inter_arrival.as_millis()))
        } else {
            SimDuration::ZERO
        }
    }
}

/// The immutable, policy-independent part of one workflow request.
#[derive(Debug, Default, PartialEq)]
pub struct RequestInput {
    /// Request identifier (sequence number within the experiment).
    pub id: u64,
    /// Arrival offset from the start of the experiment.
    pub arrival_offset: SimDuration,
    /// Random latency factor per function (same order as the workflow's
    /// function list): working-set scale × residual noise.
    pub factors: Vec<f64>,
}

impl Clone for RequestInput {
    fn clone(&self) -> Self {
        RequestInput {
            id: self.id,
            arrival_offset: self.arrival_offset,
            factors: self.factors.clone(),
        }
    }

    /// Field by field, so `factors` keeps its buffer when it is big enough:
    /// a recycled input is refilled without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.arrival_offset = source.arrival_offset;
        self.factors.clone_from(&source.factors);
    }
}

impl RequestInput {
    /// The random factor of function `index` (1.0 if out of range, which can
    /// only happen if the workflow was modified after generation).
    pub fn factor(&self, index: usize) -> f64 {
        self.factors.get(index).copied().unwrap_or(1.0)
    }
}

/// Generates a reproducible stream of [`RequestInput`]s for a workflow.
#[derive(Debug)]
pub struct RequestInputGenerator {
    rng: SimRng,
    next_id: u64,
    clock: SimDuration,
    sampler: Box<dyn InterArrivalSampler>,
}

impl RequestInputGenerator {
    /// Create a generator with Poisson arrivals of the given mean
    /// inter-arrival time. Use `SimDuration::ZERO` for a closed-loop
    /// (back-to-back) workload, matching the paper's 1000-request runs.
    pub fn new(seed: u64, mean_inter_arrival: SimDuration) -> Self {
        Self::with_sampler(seed, Box::new(PoissonGaps::new(mean_inter_arrival)))
    }

    /// Create a generator whose arrival gaps come from an arbitrary
    /// [`InterArrivalSampler`]. The sampler shares the generator's RNG
    /// stream, so `with_sampler(seed, PoissonGaps::new(m))` is draw-for-draw
    /// identical to `new(seed, m)`.
    pub fn with_sampler(seed: u64, sampler: Box<dyn InterArrivalSampler>) -> Self {
        RequestInputGenerator {
            rng: SimRng::seed_from_u64(seed),
            next_id: 0,
            clock: SimDuration::ZERO,
            sampler,
        }
    }

    /// Generate the next request for `workflow`.
    pub fn next_request(&mut self, workflow: &Workflow) -> RequestInput {
        let mut request = RequestInput::default();
        self.next_request_into(workflow, &mut request);
        request
    }

    /// Generate the next request for `workflow` into `slot`, overwriting
    /// every field and refilling `slot.factors` in place: the same draws as
    /// [`next_request`](Self::next_request), without a fresh allocation
    /// once the slot's buffer is big enough.
    pub fn next_request_into(&mut self, workflow: &Workflow, slot: &mut RequestInput) {
        let id = self.next_id;
        self.next_id += 1;
        self.clock += self.sampler.next_gap(&mut self.rng).saturate();
        let mut fn_rng = self.rng.fork(id);
        slot.id = id;
        slot.arrival_offset = self.clock;
        slot.factors.clear();
        slot.factors.extend(
            workflow
                .functions()
                .iter()
                .map(|f| f.sample_random_factor(&mut fn_rng)),
        );
    }

    /// Generate a batch of `n` requests.
    pub fn generate(&mut self, workflow: &Workflow, n: usize) -> Vec<RequestInput> {
        (0..n).map(|_| self.next_request(workflow)).collect()
    }
}

/// A pull-based stream of requests in non-decreasing arrival order — the
/// streaming counterpart of [`RequestInputGenerator::generate`].
///
/// The open-loop simulation draws one request at a time as simulated time
/// advances, so a source backed by a generator holds **no** materialized
/// arrivals and a run's memory footprint is bounded by in-flight work
/// instead of the total request count. [`resident`](Self::resident) makes
/// that footprint observable: it reports how many arrivals the source holds
/// materialized *right now*, which the platform folds into its
/// `peak_resident_arrivals` statistic.
///
/// Draws are in place: the open loop hands [`next_request_into`] a recycled
/// input whose `factors` buffer a finished request left behind, so a
/// steady-state draw allocates nothing.
///
/// [`next_request_into`]: Self::next_request_into
pub trait RequestSource: fmt::Debug + Send {
    /// Draw the next request into `slot`, overwriting every field and
    /// reusing `slot.factors`' buffer; `false` (with `slot` unspecified)
    /// when the stream is exhausted. Successive requests must have
    /// non-decreasing `arrival_offset`s.
    fn next_request_into(&mut self, workflow: &Workflow, slot: &mut RequestInput) -> bool;

    /// Draw the next request into a fresh input, or `None` when the stream
    /// is exhausted.
    fn next_request(&mut self, workflow: &Workflow) -> Option<RequestInput> {
        let mut request = RequestInput::default();
        self.next_request_into(workflow, &mut request)
            .then_some(request)
    }

    /// Number of requests currently held materialized by the source (heads
    /// of merged streams, remaining slice entries, …). A lazy generator
    /// reports 0.
    fn resident(&self) -> usize;

    /// Total requests the source will yield, when known up front. Used only
    /// to pre-size result buffers; `None` for unbounded or unknown streams.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

/// A [`RequestSource`] drawing lazily from a [`RequestInputGenerator`]:
/// the bounded-memory path. Draws are bit-identical to
/// `generator.generate(workflow, limit)` — same RNG stream, same ids, same
/// offsets — they just happen on demand.
#[derive(Debug)]
pub struct GeneratorSource {
    generator: RequestInputGenerator,
    remaining: usize,
}

impl GeneratorSource {
    /// Stream at most `limit` requests from `generator`.
    pub fn new(generator: RequestInputGenerator, limit: usize) -> Self {
        GeneratorSource {
            generator,
            remaining: limit,
        }
    }
}

impl RequestSource for GeneratorSource {
    fn next_request_into(&mut self, workflow: &Workflow, slot: &mut RequestInput) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        self.generator.next_request_into(workflow, slot);
        true
    }

    fn resident(&self) -> usize {
        0
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// A [`RequestSource`] over a pre-materialized slice: the compatibility
/// path behind the historical `&[RequestInput]` APIs.
///
/// Yields the slice in **stable arrival-time order** (equal offsets keep
/// slice order), exactly the order a pre-seeded event queue would pop
/// hand-crafted, possibly unsorted request sets in. Every entry is already
/// resident in the caller's memory, so [`resident`](RequestSource::resident)
/// honestly reports the not-yet-yielded count — materialized runs show
/// `peak_resident_arrivals ≈ N` where streaming runs show ≈ the stream
/// count.
#[derive(Debug)]
pub struct SliceSource<'a> {
    requests: &'a [RequestInput],
    /// Indices of `requests` in stable arrival-time order.
    order: Vec<usize>,
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Source over `requests`, yielded in stable arrival-time order.
    pub fn new(requests: &'a [RequestInput]) -> Self {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        if requests
            .windows(2)
            .any(|w| w[1].arrival_offset < w[0].arrival_offset)
        {
            order.sort_by(|&a, &b| {
                requests[a]
                    .arrival_offset
                    .total_cmp(&requests[b].arrival_offset)
            });
        }
        SliceSource {
            requests,
            order,
            pos: 0,
        }
    }
}

impl RequestSource for SliceSource<'_> {
    fn next_request_into(&mut self, _workflow: &Workflow, slot: &mut RequestInput) -> bool {
        let Some(&index) = self.order.get(self.pos) else {
            return false;
        };
        self.pos += 1;
        slot.clone_from(&self.requests[index]);
        true
    }

    fn resident(&self) -> usize {
        self.requests.len() - self.pos
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.requests.len() - self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::intelligent_assistant;

    #[test]
    fn requests_have_one_factor_per_function() {
        let ia = intelligent_assistant();
        let mut gen = RequestInputGenerator::new(1, SimDuration::ZERO);
        let reqs = gen.generate(&ia, 10);
        assert_eq!(reqs.len(), 10);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.factors.len(), 3);
            assert!(r.factors.iter().all(|&f| f > 0.0));
            assert_eq!(r.arrival_offset, SimDuration::ZERO, "closed loop");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let ia = intelligent_assistant();
        let a = RequestInputGenerator::new(42, SimDuration::ZERO).generate(&ia, 20);
        let b = RequestInputGenerator::new(42, SimDuration::ZERO).generate(&ia, 20);
        let c = RequestInputGenerator::new(43, SimDuration::ZERO).generate(&ia, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_spread() {
        let ia = intelligent_assistant();
        let mut gen = RequestInputGenerator::new(7, SimDuration::from_millis(100.0));
        let reqs = gen.generate(&ia, 200);
        let mut prev = SimDuration::ZERO;
        for r in &reqs {
            assert!(r.arrival_offset >= prev);
            prev = r.arrival_offset;
        }
        let mean_gap = reqs.last().unwrap().arrival_offset.as_millis() / 200.0;
        assert!(mean_gap > 60.0 && mean_gap < 150.0, "mean gap {mean_gap}");
    }

    #[test]
    fn sampler_constructor_reproduces_the_poisson_stream_exactly() {
        // The Poisson special case must stay bit-identical through the
        // sampler generalization: same seed, same offsets, same factors.
        let ia = intelligent_assistant();
        let mean = SimDuration::from_millis(250.0);
        let legacy = RequestInputGenerator::new(21, mean).generate(&ia, 100);
        let sampled = RequestInputGenerator::with_sampler(21, Box::new(PoissonGaps::new(mean)))
            .generate(&ia, 100);
        assert_eq!(legacy, sampled);
    }

    #[test]
    fn custom_samplers_drive_arrival_offsets() {
        #[derive(Debug)]
        struct EverysecondGaps;
        impl InterArrivalSampler for EverysecondGaps {
            fn next_gap(&mut self, _rng: &mut SimRng) -> SimDuration {
                SimDuration::from_secs(1.0)
            }
        }
        let ia = intelligent_assistant();
        let reqs =
            RequestInputGenerator::with_sampler(3, Box::new(EverysecondGaps)).generate(&ia, 5);
        for (i, r) in reqs.iter().enumerate() {
            assert!((r.arrival_offset.as_secs() - (i + 1) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn generator_source_streams_the_materialized_order_bit_for_bit() {
        let ia = intelligent_assistant();
        let mean = SimDuration::from_millis(40.0);
        let materialized = RequestInputGenerator::new(9, mean).generate(&ia, 50);
        let mut source = GeneratorSource::new(RequestInputGenerator::new(9, mean), 50);
        assert_eq!(source.len_hint(), Some(50));
        assert_eq!(source.resident(), 0, "a lazy generator holds nothing");
        let mut streamed = Vec::new();
        while let Some(req) = source.next_request(&ia) {
            streamed.push(req);
        }
        assert_eq!(materialized, streamed);
        assert_eq!(source.len_hint(), Some(0));
        assert!(
            source.next_request(&ia).is_none(),
            "exhausted stays exhausted"
        );
    }

    #[test]
    fn slice_source_yields_stable_arrival_time_order() {
        let make = |id: u64, ms: f64| RequestInput {
            id,
            arrival_offset: SimDuration::from_millis(ms),
            factors: vec![1.0],
        };
        // Unsorted hand-crafted set with an equal-offset pair: the yield
        // order is by arrival time, ties in slice order — exactly how a
        // pre-seeded event queue would pop them.
        let requests = vec![make(0, 30.0), make(1, 10.0), make(2, 30.0), make(3, 0.0)];
        let ia = intelligent_assistant();
        let mut source = SliceSource::new(&requests);
        assert_eq!(source.resident(), 4, "a slice is fully materialized");
        let ids: Vec<u64> = std::iter::from_fn(|| source.next_request(&ia).map(|r| r.id)).collect();
        assert_eq!(ids, vec![3, 1, 0, 2]);
        assert_eq!(source.resident(), 0);
    }

    #[test]
    fn in_place_draws_match_fresh_draws_and_keep_the_buffer() {
        let ia = intelligent_assistant();
        let mean = SimDuration::from_millis(40.0);
        let materialized = RequestInputGenerator::new(5, mean).generate(&ia, 30);
        let mut generated = GeneratorSource::new(RequestInputGenerator::new(5, mean), 30);
        let mut sliced = SliceSource::new(&materialized);
        // A recycled slot: stale contents, a buffer big enough to reuse.
        let mut slot = RequestInput {
            id: 99,
            arrival_offset: SimDuration::from_secs(9.0),
            factors: vec![0.0; 8],
        };
        let buffer = slot.factors.as_ptr();
        for expected in &materialized {
            assert!(generated.next_request_into(&ia, &mut slot));
            assert_eq!(&slot, expected);
            assert!(sliced.next_request_into(&ia, &mut slot));
            assert_eq!(&slot, expected);
            assert_eq!(slot.factors.as_ptr(), buffer, "refilled in place");
        }
        assert!(!generated.next_request_into(&ia, &mut slot));
        assert!(!sliced.next_request_into(&ia, &mut slot));
    }

    #[test]
    fn factor_out_of_range_defaults_to_one() {
        let r = RequestInput {
            id: 0,
            arrival_offset: SimDuration::ZERO,
            factors: vec![1.5],
        };
        assert_eq!(r.factor(0), 1.5);
        assert_eq!(r.factor(5), 1.0);
    }
}
