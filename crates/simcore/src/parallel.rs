//! Order-preserving parallel map on scoped threads.
//!
//! The sweep driver (`janus-core`'s `experiments::sweep`) is the one user:
//! it maps its stripes of independent, seeded grid cells to their results,
//! and the scenario, capacity and chaos experiments reach it as sweeps.
//! (The profiler no longer fans out: its per-function work is a few
//! microseconds of arithmetic per grid point.) [`map`] splits the list into
//! one contiguous chunk per available core, runs each chunk on a
//! [`std::thread::scope`] thread and reassembles the results **in input
//! order**, so a parallel run is as reproducible as a sequential one.

use std::num::NonZeroUsize;

/// Apply `f` to every item on up to `available_parallelism()` scoped
/// threads (one contiguous chunk each) and return the results in input
/// order. A worker's panic is re-raised on the calling thread with its
/// original payload.
pub fn map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len().max(1));
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::map;

    #[test]
    fn map_preserves_order() {
        let doubled = map((0..10_000i64).collect(), |x| x * 2);
        assert_eq!(doubled.len(), 10_000);
        assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i as i64));
    }

    #[test]
    fn empty_input_is_fine() {
        let v = map(Vec::<u8>::new(), |x| x + 1);
        assert!(v.is_empty());
    }

    #[test]
    fn worker_panic_payload_survives_to_the_caller() {
        // The payload must cross the join untouched, so the caller sees the
        // worker's own message rather than a generic join failure.
        let result = std::panic::catch_unwind(|| {
            map((0..1000i64).collect(), |x| {
                assert!(x != 437, "boom at item {x}");
                x * 2
            })
        });
        let payload = result.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(
            message.contains("boom at item 437"),
            "original panic message lost: {message:?}"
        );
    }
}
