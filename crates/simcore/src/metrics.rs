//! Lightweight metrics registry with interned, pre-resolved handles.
//!
//! The evaluation harness records many named counters (SLO violations, hint
//! misses, cold starts) and sample streams (E2E latency, per-request CPU).
//! The registry is thread-safe: handles are `Arc`s to atomic counters and
//! locked streams, so threads may share one instance.
//!
//! # Hot-path contract
//!
//! The name-based reads (`counter`, `streaming`) hash the metric name and
//! take the registry's map lock on **every** call — fine for setup and
//! reporting, too slow for the per-event path of a simulation serving
//! millions of requests. Setup code interns a handle **once** and records
//! through it:
//!
//! ```
//! use janus_simcore::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! // Session setup: one name resolution, one map lock.
//! let violations = registry.counter_handle("slo_violations");
//! let latency = registry.streaming_handle("e2e_ms");
//! // Per-event: no string hashing, no map lookup.
//! violations.incr(1);
//! latency.record(812.5);
//! assert_eq!(registry.counter("slo_violations"), 1);
//! ```
//!
//! Two kinds of metric exist:
//!
//! * **counters** ([`CounterHandle`]) — lock-free atomic adds;
//! * **streaming series** ([`StreamingHandle`]) — O(1) memory
//!   [`StreamingSummary`] folding; used by the serving loops and sweeps,
//!   where buffering every sample would be wasteful. Experiments that need
//!   exact percentiles keep their own samples and summarise them with
//!   [`Summary`](crate::stats::Summary).
//!
//! Even a handle's atomic add or lock is too much per event for the
//! serving loops, which nothing reads until a run ends. They touch the
//! registry once per run instead: plain `u64` tallies are added to the
//! counters when the run ends, and each stream is moved out with
//! [`StreamingHandle::take`], folded into without a lock, and handed back
//! with [`StreamingHandle::restore`].

use crate::stats::StreamingSummary;
// janus-lint: allow(nondeterminism) — name→series registry for keyed lookup; snapshots sort names before rendering
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{LockResult, Mutex, PoisonError, RwLock};

/// The guard of a metrics lock, poisoned or not. Every critical section in
/// this module is an intern, a fold, a swap or a clone, so a panic elsewhere
/// while one was held leaves no half-updated metric behind.
fn held<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// A pre-resolved, cheaply clonable handle to one named counter.
///
/// Obtained once from [`MetricsRegistry::counter_handle`]; increments are a
/// single relaxed atomic add — no string hashing, no map lock.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    cell: Arc<AtomicU64>,
}

impl CounterHandle {
    /// Increment the counter by `delta`.
    #[inline]
    pub fn incr(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// True when both handles point at the same underlying counter (i.e.
    /// they were interned under the same name on the same registry).
    pub fn shares_storage(&self, other: &CounterHandle) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell)
    }
}

/// A pre-resolved handle to one named streaming series.
///
/// Samples fold into a fixed-memory [`StreamingSummary`] (exact moments,
/// approximate percentiles) — O(1) per record, no per-sample buffering.
#[derive(Debug, Clone)]
pub struct StreamingHandle {
    inner: Arc<Mutex<StreamingSummary>>,
}

impl StreamingHandle {
    /// Fold one observation into the stream.
    #[inline]
    pub fn record(&self, value: f64) {
        held(self.inner.lock()).record(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        held(self.inner.lock()).count()
    }

    /// Copy of the accumulated summary.
    pub fn snapshot(&self) -> StreamingSummary {
        held(self.inner.lock()).clone()
    }

    /// Move the accumulated summary out, leaving the stream empty until
    /// [`restore`](Self::restore). A serving loop takes its streams once
    /// per run and folds every sample into the taken summaries with no
    /// lock: the samples fold in the same order as through
    /// [`record`](Self::record), so the result is the same bit for bit.
    pub fn take(&self) -> StreamingSummary {
        std::mem::take(&mut *held(self.inner.lock()))
    }

    /// Hand back a summary from [`take`](Self::take). It replaces the
    /// stream if nothing was recorded in between, and is merged into it
    /// otherwise (exact counts and histogram; the moments as
    /// [`StreamingSummary::merge`] combines them).
    pub fn restore(&self, summary: StreamingSummary) {
        let mut stream = held(self.inner.lock());
        if stream.is_empty() {
            *stream = summary;
        } else {
            stream.merge(&summary);
        }
    }

    /// True when both handles point at the same underlying stream.
    pub fn shares_storage(&self, other: &StreamingHandle) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A named, thread-safe metrics registry of counters and streaming
/// summaries. See the [module docs](self) for the hot-path handle contract.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    streams: RwLock<HashMap<String, Arc<Mutex<StreamingSummary>>>>,
}

/// Intern-or-get on one of the registry's maps: the read-lock fast path
/// first, then an upgrade to the write lock where `entry` arbitrates racing
/// interns so both threads end up with the same underlying cell.
fn intern<V, F>(map: &RwLock<HashMap<String, Arc<V>>>, name: &str, init: F) -> Arc<V>
where
    F: FnOnce() -> V,
{
    if let Some(v) = held(map.read()).get(name) {
        return Arc::clone(v);
    }
    let mut write = held(map.write());
    Arc::clone(
        write
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(init())),
    )
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name` and return a pre-resolved counter handle. Call once at
    /// setup; increment through the handle on the hot path.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        CounterHandle {
            cell: intern(&self.counters, name, || AtomicU64::new(0)),
        }
    }

    /// Intern `name` and return a pre-resolved streaming-series handle.
    pub fn streaming_handle(&self, name: &str) -> StreamingHandle {
        StreamingHandle {
            inner: intern(&self.streams, name, || Mutex::new(StreamingSummary::new())),
        }
    }

    /// Read a counter (0 if it was never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        held(self.counters.read())
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Copy of a streaming series' accumulated summary (None if never
    /// recorded).
    pub fn streaming(&self, name: &str) -> Option<StreamingSummary> {
        held(self.streams.read())
            .get(name)
            .map(|s| held(s.lock()).clone())
    }

    /// Reset every metric **in place** (used between experiment
    /// repetitions): counters drop to zero, streams empty, and —
    /// crucially — previously interned handles stay attached, so hot paths
    /// never re-intern after a reset.
    pub fn reset(&self) {
        for cell in held(self.counters.read()).values() {
            cell.store(0, Ordering::Relaxed);
        }
        for stream in held(self.streams.read()).values() {
            *held(stream.lock()) = StreamingSummary::new();
        }
    }

    /// Point-in-time view of every metric, for reports: counter values plus
    /// per-stream sample counts, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = held(self.counters.read())
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut series: Vec<(String, u64)> = held(self.streams.read())
            .iter()
            .map(|(name, s)| (name.clone(), held(s.lock()).count()))
            .collect();
        series.sort();
        MetricsSnapshot { counters, series }
    }
}

/// A point-in-time view of a [`MetricsRegistry`], embeddable in reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, sample count)` for every streaming series, sorted by name.
    pub series: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Value of one counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sample count of one series (0 if absent).
    pub fn series_count(&self, name: &str) -> u64 {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Total samples recorded across every series.
    pub fn total_samples(&self) -> u64 {
        self.series.iter().map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("slo_violations"), 0);
        let c = m.counter_handle("slo_violations");
        c.incr(1);
        c.incr(2);
        assert_eq!(m.counter("slo_violations"), 3);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn series_summarise() {
        let m = MetricsRegistry::new();
        let h = m.streaming_handle("e2e");
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = m.streaming("e2e").unwrap().summary().unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!(m.streaming_handle("empty").snapshot().summary().is_none());
    }

    #[test]
    fn streaming_series_fold_without_buffering() {
        let m = MetricsRegistry::new();
        assert!(m.streaming("lat").is_none());
        let h = m.streaming_handle("lat");
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        let s = m.streaming("lat").unwrap();
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert!(m.streaming("missing").is_none());
    }

    #[test]
    fn handles_bypass_the_name_maps() {
        let m = MetricsRegistry::new();
        let c = m.counter_handle("hits");
        let st = m.streaming_handle("lat");
        c.incr(5);
        st.record(1.5);
        assert_eq!(c.get(), 5);
        assert_eq!(m.counter("hits"), 5);
        assert_eq!(st.count(), 1);
        assert_eq!(st.snapshot(), m.streaming("lat").unwrap());
        // Re-interning the same name yields the same underlying storage …
        assert!(c.shares_storage(&m.counter_handle("hits")));
        assert!(st.shares_storage(&m.streaming_handle("lat")));
        // … and a different name does not.
        assert!(!c.shares_storage(&m.counter_handle("misses")));
        assert!(!st.shares_storage(&m.streaming_handle("cpu")));
    }

    #[test]
    fn reset_clears_everything_but_keeps_handles_attached() {
        let m = MetricsRegistry::new();
        let c = m.counter_handle("a");
        let st = m.streaming_handle("c");
        c.incr(1);
        st.record(2.0);
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.streaming("c").unwrap().count(), 0);
        assert_eq!(m.snapshot().total_samples(), 0);
        // The pre-reset handles still feed the registry: no re-interning
        // needed between experiment repetitions.
        c.incr(7);
        st.record(4.0);
        assert_eq!(m.counter("a"), 7);
        assert_eq!(m.streaming("c").unwrap().count(), 1);
    }

    #[test]
    fn take_and_restore_fold_like_per_sample_recording() {
        let m = MetricsRegistry::new();
        let h = m.streaming_handle("lat");
        let reference = StreamingHandle {
            inner: Arc::new(Mutex::new(StreamingSummary::new())),
        };
        h.record(3.5);
        reference.record(3.5);
        // A taken stream is empty until restored …
        let mut taken = h.take();
        assert_eq!(h.count(), 0);
        for v in [0.25, 17.0, 1e-3, 900.0] {
            taken.record(v);
            reference.record(v);
        }
        h.restore(taken);
        // … and then holds exactly what recording each sample would.
        assert_eq!(h.snapshot(), reference.snapshot());
        // Samples recorded while a stream is taken are merged, not lost.
        let taken = h.take();
        h.record(5.0);
        h.restore(taken);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn a_poisoned_lock_does_not_take_the_registry_down() {
        let m = Arc::new(MetricsRegistry::new());
        let c = m.counter_handle("hits");
        let st = m.streaming_handle("stream");
        let poisoner = {
            let (m, st) = (Arc::clone(&m), st.clone());
            thread::spawn(move || {
                let _counters = m.counters.write();
                let _streams = m.streams.write();
                let _stream = st.inner.lock();
                panic!("poison every lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(m.counters.is_poisoned() && m.streams.is_poisoned());
        assert!(st.inner.is_poisoned());
        c.incr(3);
        st.record(2.0);
        m.streaming_handle("other").record(1.0);
        assert_eq!(m.counter("hits"), 3);
        assert_eq!(m.streaming("stream").unwrap().count(), 1);
        assert_eq!(m.snapshot().total_samples(), 2);
        m.reset();
        assert_eq!(m.counter("hits"), 0);
        assert_eq!(m.snapshot().total_samples(), 0);
    }

    #[test]
    fn concurrent_interning_yields_one_shared_metric() {
        // Threads racing to intern the same names must converge on the same
        // underlying counter / stream — nothing recorded may be lost to a
        // shadowed duplicate.
        let m = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let c = m.counter_handle("hits");
                    let st = m.streaming_handle("stream");
                    for i in 0..1000 {
                        c.incr(1);
                        st.record(f64::from(i) + 1.0);
                    }
                    (c, st)
                })
            })
            .collect();
        let handles: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(m.counter("hits"), 4000);
        assert_eq!(m.streaming("stream").unwrap().count(), 4000);
        for (c, st) in &handles[1..] {
            assert!(c.shares_storage(&handles[0].0));
            assert!(st.shares_storage(&handles[0].1));
        }
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        // One pair of handles, interned once and cloned into every thread.
        let m = MetricsRegistry::new();
        let c = m.counter_handle("hits");
        let st = m.streaming_handle("lat");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, st) = (c.clone(), st.clone());
                thread::spawn(move || {
                    for i in 0..1000 {
                        c.incr(1);
                        st.record(f64::from(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.counter("hits"), 4000);
        assert_eq!(m.streaming("lat").unwrap().count(), 4000);
    }

    #[test]
    fn snapshot_captures_counters_and_sample_counts() {
        let m = MetricsRegistry::new();
        m.counter_handle("violations").incr(2);
        m.counter_handle("requests").incr(10);
        let exact = m.streaming_handle("exact");
        for v in 0..5 {
            exact.record(f64::from(v));
        }
        let stream = m.streaming_handle("stream");
        stream.record(1.0);
        stream.record(2.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("requests"), 10);
        assert_eq!(snap.counter("violations"), 2);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.series_count("exact"), 5);
        assert_eq!(snap.series_count("stream"), 2);
        assert_eq!(snap.series_count("absent"), 0);
        assert_eq!(snap.total_samples(), 7);
        // Deterministically ordered for report diffing.
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(snap.series.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
