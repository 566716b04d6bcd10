//! Event queue for the discrete-event engine.
//!
//! Events are ordered by firing time; ties are broken by insertion
//! sequence, so the simulation is fully deterministic regardless of
//! floating-point equal timestamps.
//!
//! A lazily drawn arrival stream does not go through this queue: the
//! [`Engine`](crate::engine::Engine) holds the stream's next event beside
//! it and delivers that event ahead of every queued event at or after its
//! instant (see [`Engine::hold`](crate::engine::Engine::hold)), which is the
//! order a queue pre-seeded with every arrival would pop them in.
//!
//! Payloads never move while the heap sifts: each pending payload sits in a
//! slab slot (`Vec<Option<E>>` plus a free-slot list, both kept across
//! [`EventQueue::clear`]), and the heap orders small `Copy` keys — the firing
//! time as a `u64` that orders exactly like `f64::total_cmp`, the sequence
//! number and the slot. A key is 24 bytes whatever the payload, so a push or
//! pop moves a few words per level instead of a whole event.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled at a point in simulated time carrying an arbitrary
/// payload `E` (the platform crate defines the concrete event enum).
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number used as the final deterministic tie-breaker.
    pub seq: u64,
    /// Caller-defined payload.
    pub payload: E,
}

/// What the heap sifts: the event's order (time, seq) plus the slab slot
/// holding its payload. `seq` is unique, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: u64,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

/// Map an `f64`'s bits to a `u64` whose unsigned order is `f64::total_cmp`'s:
/// negative values (sign bit set) have every bit flipped, so larger
/// magnitudes sort lower, and non-negative values get the sign bit set, so
/// they sort above every negative value (`-0.0` just below `0.0`).
pub(crate) fn time_key(at: SimTime) -> u64 {
    let bits = at.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`time_key`]: the exact instant the key was made from.
pub(crate) fn key_time(key: u64) -> SimTime {
    SimTime::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A deterministic priority queue of future events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Payload slab: `Some` exactly at the slots of pending events.
    slots: Vec<Option<E>>,
    /// Vacant slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Empty queue pre-sized for `capacity` pending events, so simulations
    /// that know their peak depth up front skip the heap's and the slab's
    /// growth reallocations.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            peak: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns the sequence number
    /// assigned to the event.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => self.grow_slab(payload),
        };
        self.heap.push(Reverse(Key {
            time: time_key(at),
            seq,
            slot,
        }));
        self.peak = self.peak.max(self.heap.len());
        seq
    }

    /// Append `payload` in a new slab slot (no vacant slot to reuse).
    fn grow_slab(&mut self, payload: E) -> u32 {
        let slot = u32::try_from(self.slots.len())
            .unwrap_or_else(|_| unreachable!("more than u32::MAX pending events"));
        self.slots.push(Some(payload));
        slot
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Reverse(key) = self.heap.pop()?;
        let Some(payload) = self.slots[key.slot as usize].take() else {
            unreachable!("pending event {} has an empty slab slot", key.seq);
        };
        self.free.push(key.slot);
        Some(ScheduledEvent {
            at: key_time(key.time),
            seq: key.seq,
            payload,
        })
    }

    /// Firing time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(key_time)
    }

    /// [`time_key`] of the earliest pending event's firing time.
    pub(crate) fn peek_key(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(key)| key.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of pending events since creation (or the last
    /// [`clear`](Self::clear)) — the queue-depth statistic the perf
    /// trajectory bench reports.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak
    }

    /// Drop all pending events and reset the peak-depth statistic. The
    /// heap's and the slab's allocations are kept, so a cleared queue can be
    /// reused across runs without reallocating.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.peak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30.0), "c");
        q.schedule(SimTime::from_millis(10.0), "a");
        q.schedule(SimTime::from_millis(20.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5.0);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1.0)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn peak_len_tracks_the_high_water_mark() {
        let mut q = EventQueue::with_capacity(8);
        assert_eq!(q.peak_len(), 0);
        for i in 0..5 {
            q.schedule(SimTime::from_millis(f64::from(i)), i);
        }
        assert_eq!(q.peak_len(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 3);
        // The peak survives pops …
        assert_eq!(q.peak_len(), 5);
        q.schedule(SimTime::from_millis(9.0), 9);
        assert_eq!(q.peak_len(), 5, "4 pending never exceeded the peak of 5");
        // … and resets with clear, while the allocation is reused.
        q.clear();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::from_millis(1.0), 1);
        assert_eq!(q.peak_len(), 1);
    }

    #[test]
    fn time_keys_order_like_total_cmp_and_round_trip() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            let ta = SimTime::from_bits(a.to_bits());
            assert_eq!(key_time(time_key(ta)).to_bits(), a.to_bits());
            for b in values {
                let tb = SimTime::from_bits(b.to_bits());
                assert_eq!(
                    time_key(ta).cmp(&time_key(tb)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    /// Reference model: every pending event in a `Vec`, the earliest found
    /// by a scan over (`total_cmp` time, seq).
    #[derive(Default)]
    struct Model {
        pending: Vec<(SimTime, u64, u64)>,
        next_seq: u64,
        peak: usize,
    }

    impl Model {
        fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at, seq, payload));
            self.peak = self.peak.max(self.pending.len());
            seq
        }

        fn earliest(&self) -> Option<usize> {
            (0..self.pending.len()).min_by(|&i, &j| {
                let (a, b) = (&self.pending[i], &self.pending[j]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            })
        }

        fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
            self.earliest().map(|i| self.pending.swap_remove(i))
        }

        fn clear(&mut self) {
            self.pending.clear();
            self.peak = 0;
        }
    }

    #[test]
    fn random_operations_match_a_sorted_reference_model() {
        // Few distinct timestamps force ties on time, so seq decides often;
        // -0.0 and 0.0 must stay distinct, ordered as total_cmp orders them.
        const TIMES: [f64; 7] = [0.0, -0.0, 1.0, 2.5, -4.0, 1e9, 2.5e-7];
        let mut rng = SimRng::seed_from_u64(0xE7E47);
        let mut queue: EventQueue<u64> = EventQueue::with_capacity(4);
        let mut model = Model::default();
        let (mut pops, mut ties) = (0usize, 0usize);
        for step in 0..10_000u64 {
            let at = SimTime::from_millis(TIMES[rng.int_range(0, 6) as usize]);
            match rng.int_range(0, 99) {
                0..=59 => {
                    assert_eq!(queue.schedule(at, step), model.schedule(at, step));
                }
                60..=89 => {
                    let expected = model.pop();
                    let got = queue.pop().map(|e| (e.at, e.seq, e.payload));
                    match (got, expected) {
                        (Some(g), Some(e)) => {
                            assert_eq!(
                                g.0.as_millis().to_bits(),
                                e.0.as_millis().to_bits(),
                                "step {step}: time"
                            );
                            assert_eq!((g.1, g.2), (e.1, e.2), "step {step}");
                            pops += 1;
                            if model
                                .pending
                                .iter()
                                .any(|p| p.0.as_millis().to_bits() == e.0.as_millis().to_bits())
                            {
                                ties += 1;
                            }
                        }
                        (None, None) => {}
                        (g, e) => panic!("step {step}: popped {g:?}, model has {e:?}"),
                    }
                }
                90..=98 => {
                    let expected = model
                        .earliest()
                        .map(|i| model.pending[i].0.as_millis().to_bits());
                    assert_eq!(queue.peek_time().map(|t| t.as_millis().to_bits()), expected);
                }
                _ => {
                    queue.clear();
                    model.clear();
                }
            }
            assert_eq!(queue.len(), model.pending.len(), "step {step}: len");
            assert_eq!(queue.is_empty(), model.pending.is_empty());
            assert_eq!(queue.peak_len(), model.peak, "step {step}: peak");
        }
        // The run must exercise what it is meant to: many pops, many of
        // them among equal timestamps.
        assert!(pops > 2_000 && ties > 500, "pops {pops}, ties {ties}");
        while let Some((at, seq, payload)) = model.pop() {
            let e = queue.pop().expect("queue drains with the model");
            assert_eq!(
                (e.at.as_millis().to_bits(), e.seq, e.payload),
                (at.as_millis().to_bits(), seq, payload)
            );
        }
        assert!(queue.pop().is_none());
    }
}
