//! Multi-tenant arrival streams: k lazy per-tenant generators merged into
//! one [`RequestSource`] by next-arrival time.
//!
//! A tenant is one independent arrival stream — its own
//! [`ArrivalProcess`](crate::ArrivalProcess)-backed
//! [`RequestInputGenerator`] with its own RNG stream, derived
//! deterministically from the run seed and the stream index. The merge
//! holds exactly **one pending arrival per stream** (the head), so the
//! resident footprint of an N-request multi-tenant run is the stream count,
//! not N. Heterogeneous tenants (different scenarios, different rates)
//! interleave naturally: whichever stream's head arrives first is yielded
//! next, with the stream index breaking exact ties so merges are fully
//! deterministic.
//!
//! Request ids are re-sequenced globally in merged order (0, 1, 2, …), so
//! downstream accounting — outcome maps, paired comparisons, traces — sees
//! the same contiguous id space a single-stream run produces. Per-request
//! random factors still come from the owning tenant's RNG stream, so adding
//! a tenant never perturbs another tenant's draws.

use janus_workloads::request::{RequestInput, RequestInputGenerator, RequestSource};
use janus_workloads::workflow::Workflow;

/// Derive the seed of tenant stream `stream` from the run seed. Streams get
/// well-separated RNG streams (splitmix-style odd-constant multiply) and
/// stream 0 keeps a distinct seed from the run itself, so a multi-tenant
/// run never replays the single-stream request set under a different name.
pub fn tenant_stream_seed(base: u64, stream: u64) -> u64 {
    base ^ (stream.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One tenant stream inside a [`MergedRequestSource`]: a lazy generator
/// plus its buffered head (the stream's next arrival).
#[derive(Debug)]
struct TenantStream {
    generator: RequestInputGenerator,
    head: Option<RequestInput>,
}

/// A [`RequestSource`] merging k tenant streams by next-arrival time.
///
/// Yields at most `limit` requests in global arrival order. Each stream is
/// unbounded (generators never run dry); the budget bounds the merge, so a
/// faster tenant naturally contributes proportionally more of the run's
/// requests. [`resident`](RequestSource::resident) reports the buffered
/// head count — the bounded-memory invariant the streaming open loop
/// surfaces as `peak_resident_arrivals`.
#[derive(Debug)]
pub struct MergedRequestSource {
    streams: Vec<TenantStream>,
    remaining: usize,
    next_id: u64,
    primed: bool,
}

impl MergedRequestSource {
    /// Merge the given per-tenant generators, yielding at most `limit`
    /// requests in global arrival order.
    pub fn new(generators: Vec<RequestInputGenerator>, limit: usize) -> Result<Self, String> {
        if generators.is_empty() {
            return Err("a merged request source needs at least one stream".into());
        }
        Ok(MergedRequestSource {
            streams: generators
                .into_iter()
                .map(|generator| TenantStream {
                    generator,
                    head: None,
                })
                .collect(),
            remaining: limit,
            next_id: 0,
            primed: false,
        })
    }
}

impl RequestSource for MergedRequestSource {
    fn next_request_into(&mut self, workflow: &Workflow, slot: &mut RequestInput) -> bool {
        if self.remaining == 0 {
            return false;
        }
        if !self.primed {
            for stream in &mut self.streams {
                stream.head = Some(stream.generator.next_request(workflow));
            }
            self.primed = true;
        }
        // k-way merge: the earliest head wins; exact ties go to the lowest
        // stream index (stable, deterministic).
        let mut best = 0;
        for (i, stream) in self.streams.iter().enumerate().skip(1) {
            let (Some(head), Some(best_head)) = (&stream.head, &self.streams[best].head) else {
                continue;
            };
            if head.arrival_offset < best_head.arrival_offset {
                best = i;
            }
        }
        let stream = &mut self.streams[best];
        let Some(head) = stream.head.as_mut() else {
            return false;
        };
        // The head moves into the slot, and the slot's buffer takes the
        // stream's next draw.
        std::mem::swap(head, slot);
        stream.generator.next_request_into(workflow, head);
        slot.id = self.next_id;
        self.next_id += 1;
        self.remaining -= 1;
        true
    }

    fn resident(&self) -> usize {
        self.streams.iter().filter(|s| s.head.is_some()).count()
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ScenarioContext, ScenarioRegistry};
    use janus_simcore::time::SimDuration;
    use janus_workloads::apps::intelligent_assistant;

    fn generator(
        registry: &ScenarioRegistry,
        scenario: &str,
        rps: f64,
        seed: u64,
    ) -> RequestInputGenerator {
        let ctx = ScenarioContext {
            base_rps: rps,
            requests: 500,
            seed,
        };
        let process = registry.build(scenario, &ctx).expect("builtin scenario");
        RequestInputGenerator::with_sampler(seed, process.sampler())
    }

    #[test]
    fn merged_streams_yield_global_arrival_order_with_resequenced_ids() {
        let ia = intelligent_assistant();
        let registry = ScenarioRegistry::with_builtins();
        let mut source = MergedRequestSource::new(
            vec![
                generator(&registry, "poisson", 3.0, tenant_stream_seed(7, 0)),
                generator(&registry, "bursty", 1.0, tenant_stream_seed(7, 1)),
                generator(&registry, "flash-crowd", 2.0, tenant_stream_seed(7, 2)),
            ],
            200,
        )
        .unwrap();
        assert_eq!(source.streams.len(), 3);
        let mut prev = SimDuration::ZERO;
        let mut count = 0u64;
        while let Some(req) = source.next_request(&ia) {
            assert_eq!(req.id, count, "ids re-sequence in merged order");
            assert!(req.arrival_offset >= prev, "merge is time-ordered");
            assert!(source.resident() <= 3, "at most one head per stream");
            prev = req.arrival_offset;
            count += 1;
        }
        assert_eq!(count, 200, "the budget bounds the merge");
        assert_eq!(source.resident(), 3, "heads stay buffered at exhaustion");
    }

    #[test]
    fn merges_are_deterministic_and_seed_sensitive() {
        let ia = intelligent_assistant();
        let registry = ScenarioRegistry::with_builtins();
        let draw = |seed: u64| {
            let mut source = MergedRequestSource::new(
                vec![
                    generator(&registry, "poisson", 2.0, tenant_stream_seed(seed, 0)),
                    generator(&registry, "diurnal", 2.0, tenant_stream_seed(seed, 1)),
                ],
                100,
            )
            .unwrap();
            std::iter::from_fn(|| source.next_request(&ia)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn single_stream_merges_only_resequence_ids() {
        // A one-stream merge is the underlying stream with re-derived ids:
        // same offsets, same factors (ids already match since both count
        // from zero).
        let ia = intelligent_assistant();
        let registry = ScenarioRegistry::with_builtins();
        let seed = tenant_stream_seed(11, 0);
        let direct = generator(&registry, "poisson", 4.0, seed).generate(&ia, 50);
        let mut source =
            MergedRequestSource::new(vec![generator(&registry, "poisson", 4.0, seed)], 50).unwrap();
        let merged: Vec<_> = std::iter::from_fn(|| source.next_request(&ia)).collect();
        assert_eq!(direct, merged);
    }

    #[test]
    fn empty_merges_are_rejected() {
        let err = MergedRequestSource::new(vec![], 10).unwrap_err();
        assert!(err.contains("at least one stream"), "{err}");
    }
}
