//! Provider → developer feedback channel.
//!
//! "In very rare cases where hints table misses are severe …, the adapter
//! notifies the developer and proposes re-triggering the profiler and
//! synthesizer to regenerate the hints table. This regeneration process is
//! done asynchronously while workflow execution is still in progress"
//! (§III-A). The channel decouples the online decision path (which must stay
//! in the microsecond range) from the offline regeneration pipeline.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Events the adapter emits towards the developer side.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedbackEvent {
    /// The miss rate exceeded the configured threshold; the developer should
    /// re-run the profiler and synthesizer for this workflow.
    RegenerationRequested {
        /// Workflow name the hints bundle belongs to.
        workflow: String,
        /// Observed miss rate when the request was raised.
        observed_miss_rate: f64,
        /// Number of lookups behind the observation.
        observations: u64,
    },
    /// A regenerated bundle was installed; informational.
    BundleInstalled {
        /// Workflow name.
        workflow: String,
    },
}

/// An asynchronous, non-blocking feedback channel between the adapter
/// (producer) and the developer tooling (consumer).
///
/// Implemented as a shared lock-guarded queue rather than an external channel
/// crate: producers and consumers are both non-blocking, clones share the
/// same queue, and the serving path only ever takes the lock for a push.
#[derive(Debug, Clone, Default)]
pub struct FeedbackChannel {
    queue: Arc<Mutex<VecDeque<FeedbackEvent>>>,
}

impl FeedbackChannel {
    /// Create an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// The queue, poisoned or not. Every critical section is one push, pop,
    /// drain or length read, so a panic elsewhere while the lock was held
    /// leaves no half-updated queue behind.
    fn queue(&self) -> MutexGuard<'_, VecDeque<FeedbackEvent>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Emit an event. Never blocks on a consumer; if the developer side went
    /// away the event simply waits in the queue (the adapter must not stall
    /// the serving path).
    pub fn emit(&self, event: FeedbackEvent) {
        self.queue().push_back(event);
    }

    /// Non-blocking poll for the next pending event.
    pub fn poll(&self) -> Option<FeedbackEvent> {
        self.queue().pop_front()
    }

    /// Drain all pending events.
    pub fn drain(&self) -> Vec<FeedbackEvent> {
        self.queue().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn events_flow_through_the_channel() {
        let chan = FeedbackChannel::new();
        assert_eq!(chan.poll(), None);
        chan.emit(FeedbackEvent::RegenerationRequested {
            workflow: "IA".to_string(),
            observed_miss_rate: 0.05,
            observations: 1000,
        });
        chan.emit(FeedbackEvent::BundleInstalled {
            workflow: "IA".to_string(),
        });
        assert_eq!(chan.queue().len(), 2);
        let events = chan.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            FeedbackEvent::RegenerationRequested { .. }
        ));
        assert_eq!(chan.queue().len(), 0);
    }

    #[test]
    fn a_poisoned_queue_keeps_serving() {
        let chan = FeedbackChannel::new();
        chan.emit(FeedbackEvent::BundleInstalled {
            workflow: "IA".to_string(),
        });
        let holder = chan.clone();
        let crashed = thread::spawn(move || {
            let _held = holder.queue.lock();
            panic!("consumer crashed while holding the queue");
        })
        .join();
        assert!(crashed.is_err());
        assert!(chan.queue.is_poisoned());
        assert_eq!(chan.queue().len(), 1);
        assert!(chan.poll().is_some());
        assert_eq!(chan.drain(), Vec::new());
    }

    #[test]
    fn channel_works_across_threads() {
        let chan = FeedbackChannel::new();
        let producer = chan.clone();
        let handle = thread::spawn(move || {
            for i in 0..100 {
                producer.emit(FeedbackEvent::RegenerationRequested {
                    workflow: format!("wf-{i}"),
                    observed_miss_rate: 0.02,
                    observations: i,
                });
            }
        });
        handle.join().unwrap();
        assert_eq!(chan.drain().len(), 100);
    }
}
