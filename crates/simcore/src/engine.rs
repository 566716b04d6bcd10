//! Discrete-event simulation driver.
//!
//! The engine owns the clock and the event queue and repeatedly hands the
//! earliest event to a caller-supplied handler, which may schedule follow-up
//! events. The platform crate builds the serverless request lifecycle
//! (arrival → function start → function completion → adaptation → next
//! function) on top of this loop.

use crate::error::SimError;
use crate::event::{EventQueue, ScheduledEvent};
use crate::time::{SimDuration, SimTime};
use crate::SimResult;

/// Configuration for the simulation engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard cap on processed events; guards against runaway feedback loops in
    /// experiments. `None` disables the cap.
    pub max_events: Option<u64>,
    /// Simulation horizon: the run terminates before delivering any event
    /// that fires after this instant. Post-horizon events are **not**
    /// consumed — they stay in the queue and remain observable through
    /// [`Engine::pending`]. `None` runs until the queue drains.
    pub horizon: Option<SimTime>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_events: Some(50_000_000),
            horizon: None,
        }
    }
}

/// The discrete-event engine: a clock plus an event queue of payloads `E`.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    config: EngineConfig,
    processed: u64,
}

impl<E> Engine<E> {
    /// Create an engine at time zero with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            config,
            processed: 0,
        }
    }

    /// Engine with default limits.
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Engine pre-sized for `capacity` pending events (see
    /// [`EventQueue::with_capacity`]).
    pub fn with_capacity(config: EngineConfig, capacity: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(capacity),
            config,
            processed: 0,
        }
    }

    /// Reserve queue space for at least `additional` more pending events.
    /// Callers that know their arrival count (replays, open-loop request
    /// sets) reserve once up front instead of growing the heap on the fly.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of pending events since creation or the last
    /// [`reset`](Self::reset) — the peak queue depth of the run.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> u64 {
        self.queue.schedule(self.now + delay.saturate(), payload)
    }

    /// [`schedule_in`](Self::schedule_in) with an explicit tie-break class:
    /// among same-timestamp events, lower classes pop first regardless of
    /// insertion order (see [`crate::event`] for when this matters).
    pub fn schedule_in_class(&mut self, delay: SimDuration, class: u8, payload: E) -> u64 {
        self.queue
            .schedule_class(self.now + delay.saturate(), class, payload)
    }

    /// Schedule `payload` at an absolute instant with an explicit tie-break
    /// class (see [`schedule_in_class`](Self::schedule_in_class)).
    /// Scheduling in the past is a logic error and returns
    /// [`SimError::TimeTravel`].
    pub fn schedule_at_class(&mut self, at: SimTime, class: u8, payload: E) -> SimResult<u64> {
        if at < self.now {
            return Err(SimError::TimeTravel {
                now_ms: self.now.as_millis(),
                requested_ms: at.as_millis(),
            });
        }
        Ok(self.queue.schedule_class(at, class, payload))
    }

    /// Pop the next event, advancing the clock to its firing time. Returns
    /// `None` when the queue is empty, the horizon is reached, or the event
    /// cap is hit.
    pub fn next_event(&mut self) -> Option<ScheduledEvent<E>> {
        if let Some(max) = self.config.max_events {
            if self.processed >= max {
                return None;
            }
        }
        if let Some(horizon) = self.config.horizon {
            // Peek before popping: a post-horizon event terminates the run
            // but must stay in the queue — popping it here would silently
            // consume one event and leave `pending()` lying about what the
            // horizon cut off.
            if self.queue.peek_time()? > horizon {
                return None;
            }
        }
        let ev = self.queue.pop()?;
        debug_assert!(
            ev.at >= self.now,
            "event queue produced an event in the past"
        );
        self.now = ev.at;
        self.processed += 1;
        Some(ev)
    }

    /// Drive the simulation to completion, invoking `handler` for every event.
    /// The handler receives `&mut Engine` so it can schedule follow-ups.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, ScheduledEvent<E>),
    {
        while let Some(ev) = self.next_event() {
            handler(self, ev);
        }
    }

    /// Drop all pending events and reset the clock; reuses the allocation.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = SimTime::ZERO;
        self.processed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum TestEvent {
        Ping(u32),
        Pong(u32),
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut engine: Engine<TestEvent> = Engine::with_defaults();
        engine.schedule_in(SimDuration::from_millis(5.0), TestEvent::Ping(1));
        engine.schedule_in(SimDuration::from_millis(2.0), TestEvent::Ping(2));
        let mut times = Vec::new();
        // Can't use `run` here because we want to record the clock.
        while let Some(_ev) = engine.next_event() {
            times.push(engine.now().as_millis());
        }
        assert_eq!(times, vec![2.0, 5.0]);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut engine: Engine<TestEvent> = Engine::with_defaults();
        engine.schedule_in(SimDuration::from_millis(1.0), TestEvent::Ping(0));
        let mut seen = Vec::new();
        engine.run(|eng, ev| match ev.payload {
            TestEvent::Ping(n) if n < 3 => {
                seen.push(format!("ping{n}"));
                eng.schedule_in(SimDuration::from_millis(1.0), TestEvent::Ping(n + 1));
                eng.schedule_in(SimDuration::from_millis(0.5), TestEvent::Pong(n));
            }
            TestEvent::Ping(n) => seen.push(format!("ping{n}")),
            TestEvent::Pong(n) => seen.push(format!("pong{n}")),
        });
        assert_eq!(
            seen,
            vec!["ping0", "pong0", "ping1", "pong1", "ping2", "pong2", "ping3"]
        );
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn scheduling_in_the_past_is_rejected() {
        let mut engine: Engine<u32> = Engine::with_defaults();
        engine.schedule_in(SimDuration::from_millis(10.0), 1);
        engine.next_event();
        assert_eq!(engine.now().as_millis(), 10.0);
        let err = engine
            .schedule_at_class(SimTime::from_millis(5.0), 0, 2)
            .unwrap_err();
        assert!(matches!(err, SimError::TimeTravel { .. }));
    }

    #[test]
    fn horizon_and_event_cap_terminate_the_run() {
        let mut engine: Engine<u32> = Engine::new(EngineConfig {
            max_events: Some(5),
            horizon: None,
        });
        engine.schedule_in(SimDuration::from_millis(1.0), 0);
        let mut count = 0;
        engine.run(|eng, ev| {
            count += 1;
            eng.schedule_in(SimDuration::from_millis(1.0), ev.payload + 1);
        });
        assert_eq!(count, 5, "event cap stops an otherwise infinite chain");

        let mut engine: Engine<u32> = Engine::new(EngineConfig {
            max_events: None,
            horizon: Some(SimTime::from_millis(3.5)),
        });
        for i in 0..10 {
            engine.schedule_in(SimDuration::from_millis(i as f64), i);
        }
        let mut last = 0;
        engine.run(|_eng, ev| last = ev.payload);
        assert_eq!(last, 3, "events after the horizon are not delivered");
    }

    #[test]
    fn horizon_leaves_post_horizon_events_pending() {
        // Regression: next_event used to pop (and silently discard) the
        // first post-horizon event before noticing it was out of range.
        let mut engine: Engine<u32> = Engine::new(EngineConfig {
            max_events: None,
            horizon: Some(SimTime::from_millis(3.5)),
        });
        for i in 0..10 {
            engine.schedule_in(SimDuration::from_millis(i as f64), i);
        }
        engine.run(|_eng, _ev| {});
        assert_eq!(engine.processed(), 4, "events at 0..=3 ms are delivered");
        assert_eq!(
            engine.pending(),
            6,
            "events at 4..=9 ms stay un-consumed in the queue"
        );
        // A later next_event call still refuses to deliver them …
        assert!(engine.next_event().is_none());
        assert_eq!(engine.pending(), 6);
        // … and the clock never advanced past the last delivered event.
        assert_eq!(engine.now().as_millis(), 3.0);
    }

    #[test]
    fn capacity_presizing_and_peak_depth_are_observable() {
        let mut engine: Engine<u32> = Engine::with_capacity(EngineConfig::default(), 64);
        engine.reserve(64);
        for i in 0..10 {
            engine.schedule_in(SimDuration::from_millis(f64::from(i)), i);
        }
        assert_eq!(engine.peak_pending(), 10);
        engine.run(|_eng, _ev| {});
        assert_eq!(engine.peak_pending(), 10);
        assert_eq!(engine.processed(), 10);
        // Reset reuses the allocation and starts a fresh peak statistic.
        engine.reset();
        assert_eq!(engine.peak_pending(), 0);
        engine.schedule_in(SimDuration::from_millis(1.0), 0);
        assert_eq!(engine.peak_pending(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut engine: Engine<u32> = Engine::with_defaults();
        engine.schedule_in(SimDuration::from_millis(1.0), 7);
        engine.next_event();
        engine.schedule_in(SimDuration::from_millis(1.0), 8);
        engine.reset();
        assert_eq!(engine.now(), SimTime::ZERO);
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.processed(), 0);
    }
}
