//! The pending-event set: a binary heap of dispatch keys ordered by (time,
//! insertion sequence), over a slab that holds the events themselves.
//!
//! The sequence number guarantees FIFO order among events scheduled for the
//! same instant, which makes the whole simulation deterministic regardless of
//! heap internals. The ordering pair is public as [`DispatchKey`] so callers
//! can name an event's place in the total order (the scheduler's reserved
//! keys, a dispatcher that needs the key it popped under).
//!
//! Each heap entry is a 24-byte `(key, slot)` pair; the event stays put in
//! slot `slot` of the slab from push to pop. A heap sift therefore moves 24
//! bytes instead of the whole event. Freed slots go on a LIFO free list and
//! are reused before the slab grows, so the slab never hands out more slots
//! than the peak number of pending events. The slab grows by fixed chunks
//! of `SLAB_CHUNK` slots rather than by doubling one vector, so growth
//! never copies events or leaves a freed copy behind in the allocator.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The total order every event dispatches in: due time first, then the
/// monotone insertion sequence as the tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DispatchKey {
    /// Absolute due instant.
    pub at: SimTime,
    /// Insertion sequence; unique within one queue.
    pub seq: u64,
}

/// A dispatch key with the slab slot of its event.
#[derive(Debug)]
struct Scheduled {
    key: DispatchKey,
    slot: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with insertion order breaking ties.
        other.key.cmp(&self.key)
    }
}

/// Slots per slab chunk (28 KB of the cluster's 112-byte events).
const SLAB_CHUNK: usize = 256;

/// A time-ordered queue of pending events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled>,
    /// Pending events: slot `s` is `slab[s / SLAB_CHUNK][s % SLAB_CHUNK]`,
    /// and `None` marks a free slot.
    slab: Vec<Box<[Option<E>]>>,
    /// Slots handed out so far; every one is pending or on `free`.
    slots: usize,
    /// Free slots, most recently freed last.
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            slots: 0,
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let key = self.reserve(at);
        self.push_keyed(key, event);
    }

    /// Allocate the next sequence number for instant `at` without pushing
    /// anything. The key counts as scheduled; its event may be pushed
    /// later with [`push_keyed`](Self::push_keyed), or never.
    pub fn reserve(&mut self, at: SimTime) -> DispatchKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        DispatchKey { at, seq }
    }

    /// Schedule `event` under an externally allocated dispatch key, usually
    /// one handed out by [`reserve`](Self::reserve). Later sequence numbers
    /// continue past the largest key pushed.
    pub fn push_keyed(&mut self, key: DispatchKey, event: E) {
        self.next_seq = self.next_seq.max(key.seq + 1);
        let slot = self.free.pop().unwrap_or_else(|| {
            if self.slots.is_multiple_of(SLAB_CHUNK) {
                self.slab.push((0..SLAB_CHUNK).map(|_| None).collect());
            }
            self.slots += 1;
            self.slots - 1
        });
        *self.slot_mut(slot) = Some(event);
        self.heap.push(Scheduled { key, slot });
    }

    /// Remove and return the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(key, event)| (key.at, event))
    }

    /// Remove and return the earliest pending event with its full key.
    pub fn pop_keyed(&mut self) -> Option<(DispatchKey, E)> {
        let Scheduled { key, slot } = self.heap.pop()?;
        let event = self.slot_mut(slot).take()?;
        self.free.push(slot);
        Some((key, event))
    }

    /// Dispatch key of the earliest pending event, if any.
    pub fn peek_key(&self) -> Option<DispatchKey> {
        self.heap.peek().map(|s| s.key)
    }

    /// The earliest pending event and its key, without removing it.
    pub fn peek(&self) -> Option<(DispatchKey, &E)> {
        self.heap.peek().and_then(|s| {
            self.slab[s.slot / SLAB_CHUNK][s.slot % SLAB_CHUNK]
                .as_ref()
                .map(|e| (s.key, e))
        })
    }

    /// Due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (the next tie-break sequence).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    fn slot_mut(&mut self, slot: usize) -> &mut Option<E> {
        &mut self.slab[slot / SLAB_CHUNK][slot % SLAB_CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(7), ());
        q.push(SimTime::from_micros(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
    }

    #[test]
    fn counters_track_len_and_total() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_micros(7), 2);
        // 7µs fires before the still-pending 10µs event.
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn dispatch_key_orders_time_then_seq() {
        let a = DispatchKey {
            at: SimTime::from_micros(10),
            seq: 9,
        };
        let b = DispatchKey {
            at: SimTime::from_micros(10),
            seq: 10,
        };
        let c = DispatchKey {
            at: SimTime::from_micros(11),
            seq: 0,
        };
        assert!(a < b && b < c);
    }

    #[test]
    fn keyed_push_preserves_external_sequencing() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(4);
        q.push_keyed(DispatchKey { at: t, seq: 7 }, "late");
        q.push_keyed(DispatchKey { at: t, seq: 2 }, "early");
        assert_eq!(q.peek().map(|(k, e)| (k.seq, *e)), Some((2, "early")));
        assert_eq!(q.pop_keyed().map(|(k, e)| (k.seq, e)), Some((2, "early")));
        assert_eq!(q.pop_keyed().map(|(k, e)| (k.seq, e)), Some((7, "late")));
        // next_seq advanced past the largest external key.
        q.push(t, "fresh");
        assert_eq!(q.peek_key().map(|k| k.seq), Some(8));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// Random interleavings of every queue operation agree with a
        /// `BTreeMap` keyed by `DispatchKey`: same pops in the same order,
        /// `peek` shows what the next pop returns, and freed slab slots are
        /// reused so the slab never outgrows the peak pending count.
        #[test]
        fn matches_btreemap_model(
            ops in proptest::collection::vec((0u8..5, 0u64..40, 0u64..400), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model: BTreeMap<DispatchKey, u64> = BTreeMap::new();
            let mut used = BTreeSet::new();
            let (mut next_event, mut peak) = (0u64, 0usize);
            for (op, at, seq) in ops {
                let at = SimTime::from_micros(at);
                match op {
                    0 => {
                        let key = DispatchKey { at, seq: q.scheduled_total() };
                        q.push(at, next_event);
                        used.insert(key.seq);
                        model.insert(key, next_event);
                        next_event += 1;
                    }
                    1 if used.insert(seq) => {
                        let key = DispatchKey { at, seq };
                        q.push_keyed(key, next_event);
                        model.insert(key, next_event);
                        next_event += 1;
                    }
                    2 => {
                        let peeked = q.peek().map(|(k, e)| (k, *e));
                        let popped = q.pop_keyed();
                        prop_assert_eq!(peeked, popped);
                        prop_assert_eq!(popped, model.pop_first());
                    }
                    3 => {
                        let expect = model.pop_first().map(|(k, e)| (k.at, e));
                        prop_assert_eq!(q.pop(), expect);
                    }
                    _ => {
                        let expect = model.first_key_value().map(|(k, e)| (*k, *e));
                        prop_assert_eq!(q.peek().map(|(k, e)| (k, *e)), expect);
                        prop_assert_eq!(q.peek_key(), expect.map(|(k, _)| k));
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.slots - q.free.len(), model.len());
                prop_assert!(q.slots <= peak, "{} slots > peak {}", q.slots, peak);
                prop_assert_eq!(q.slab.len(), q.slots.div_ceil(SLAB_CHUNK));
            }
            let mut rest = Vec::new();
            while let Some(p) = q.pop_keyed() {
                rest.push(p);
            }
            prop_assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
        }
    }
}
