//! The sharded event core: N per-shard queues merged into one total order.
//!
//! A [`ShardedScheduler`] behaves observably like a single
//! [`Scheduler`](crate::sched::Scheduler) (same clock, same `(at, seq)`
//! dispatch order, same counters) while storing
//! pending events in per-shard [`EventQueue`]s selected by a caller-supplied
//! routing function. Because every push draws its sequence number from one
//! shared counter, the k-way merge-by-[`DispatchKey`] at pop time reproduces
//! exactly the order a single heap would have produced — that equivalence is
//! property-tested below and is the foundation of the parallel runtime's
//! "byte-identical at any thread count" contract.
//!
//! Cross-shard values produced during a parallel round travel through
//! [`Mailbox`]es: each round task owns one, workers only ever write their own
//! task's mailbox, and the single-threaded barrier phase drains them in task
//! (dispatch) order. No locks, no atomics — the barrier itself is the
//! synchronization (lint rule R6 fences this: shared-state primitives are
//! confined to `dvelm_sim::par`).

use crate::queue::{DispatchKey, EventQueue};
use crate::sched::SchedStats;
use crate::time::SimTime;

/// A clock plus N per-shard event queues popped in merged `(at, seq)` order.
///
/// The router maps an event to a shard *hint*; the scheduler takes it modulo
/// the shard count. Routing affects only which queue stores an event — never
/// dispatch order — so any router is order-correct; a good one keeps each
/// node's events on the same shard for cache locality.
#[derive(Debug)]
pub struct ShardedScheduler<E> {
    now: SimTime,
    shards: Vec<EventQueue<E>>,
    router: fn(&E) -> u64,
    next_seq: u64,
    dispatched: u64,
    clamped: u64,
}

impl<E> ShardedScheduler<E> {
    /// A scheduler at time zero with `shards` empty queues (at least one).
    pub fn new(shards: usize, router: fn(&E) -> u64) -> Self {
        let n = shards.max(1);
        ShardedScheduler {
            now: SimTime::ZERO,
            shards: (0..n).map(|_| EventQueue::new()).collect(),
            router,
            next_seq: 0,
            dispatched: 0,
            clamped: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards (always ≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Schedule an event at an absolute instant. Instants in the past are
    /// clamped to `now` and counted in [`SchedStats::clamped`]; under
    /// sharding a nonzero count signals a lookahead bug.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let key = self.reserve_key(at);
        self.schedule_keyed(key, event);
    }

    /// Take the dispatch key `schedule_at(at, ..)` would give an event now,
    /// without scheduling one — the drop-in equivalent of
    /// [`Scheduler::reserve_key`](crate::Scheduler::reserve_key).
    pub fn reserve_key(&mut self, at: SimTime) -> DispatchKey {
        if at < self.now {
            self.clamped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        DispatchKey {
            at: at.max(self.now),
            seq,
        }
    }

    /// Schedule an event under a key from
    /// [`reserve_key`](Self::reserve_key), on the shard its router picks —
    /// the drop-in equivalent of
    /// [`Scheduler::schedule_keyed`](crate::Scheduler::schedule_keyed).
    pub fn schedule_keyed(&mut self, key: DispatchKey, event: E) {
        debug_assert!(key.at >= self.now, "reserved key lies in the past");
        let shard = ((self.router)(&event) % self.shards.len() as u64) as usize;
        self.shards[shard].push_keyed(key, event);
    }

    /// Schedule an event `delay_us` microseconds from now.
    pub fn schedule_after(&mut self, delay_us: u64, event: E) {
        self.schedule_at(self.now + delay_us, event);
    }

    /// Index of the shard holding the globally next event, if any.
    fn min_shard(&self) -> Option<usize> {
        let mut best: Option<(DispatchKey, usize)> = None;
        for (i, q) in self.shards.iter().enumerate() {
            if let Some(key) = q.peek_key() {
                // Sequence numbers are unique across shards, so keys never
                // tie and the merge order is total.
                if best.map(|(bk, _)| key < bk).unwrap_or(true) {
                    best = Some((key, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Pop the next event in merged order, advancing the clock to its due
    /// time — the drop-in equivalent of [`Scheduler::pop_next`].
    ///
    /// [`Scheduler::pop_next`]: crate::Scheduler::pop_next
    pub fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (key, event) = self.pop_for_round()?;
        self.advance_to(key.at);
        Some((key.at, event))
    }

    /// Pop the next event in merged order *without* advancing the clock.
    ///
    /// This is the round-builder primitive: the parallel executor pops a run
    /// of same-instant events first, then advances the clock once via
    /// [`advance_to`](Self::advance_to) before applying their effects, so
    /// relative scheduling during the apply phase sees the same `now` a
    /// sequential dispatch would have. The event still counts as dispatched.
    pub fn pop_for_round(&mut self) -> Option<(DispatchKey, E)> {
        let shard = self.min_shard()?;
        let (key, event) = self.shards[shard].pop_keyed()?;
        debug_assert!(
            key.at >= self.now,
            "event queue produced an event in the past"
        );
        self.dispatched += 1;
        Some((key, event))
    }

    /// Advance the clock to `t` (monotone; `t` must be ≥ `now`).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "clock may not run backwards");
        if t > self.now {
            self.now = t;
        }
    }

    /// The globally next event with its key, without removing it.
    pub fn peek(&self) -> Option<(DispatchKey, &E)> {
        let shard = self.min_shard()?;
        self.shards[shard].peek()
    }

    /// Due time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(key, _)| key.at)
    }

    /// Number of pending events across all shards (exact, not approximate).
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }

    /// Number of events dispatched so far (global, exact).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of past-instant `schedule_at` calls clamped to `now`.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Aggregate counters rolled up across all shards.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            dispatched: self.dispatched,
            scheduled: self.next_seq,
            pending: self.pending() as u64,
            clamped: self.clamped,
        }
    }

    /// Number of events pending on one shard (diagnostics / balance checks).
    pub fn shard_pending(&self, shard: usize) -> usize {
        self.shards.get(shard).map(|q| q.len()).unwrap_or(0)
    }
}

/// A single-producer FIFO for values crossing the shard boundary.
///
/// During a parallel round each task owns exactly one mailbox; the worker
/// running the task is the only writer, and the barrier phase that follows is
/// the only reader, draining mailboxes in task dispatch order. Ownership plus
/// the barrier replace locks entirely.
#[derive(Debug)]
pub struct Mailbox<M> {
    msgs: Vec<M>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Mailbox<M> {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox { msgs: Vec::new() }
    }

    /// Append a message (producer side, during the parallel phase).
    pub fn push(&mut self, msg: M) {
        self.msgs.push(msg);
    }

    /// Replace the contents wholesale (producer side, when a phase computes
    /// the full batch at once).
    pub fn fill(&mut self, msgs: Vec<M>) {
        debug_assert!(self.msgs.is_empty(), "mailbox filled twice in one round");
        self.msgs = msgs;
    }

    /// Take every queued message, leaving the mailbox empty but with its
    /// capacity intact (consumer side, at the barrier).
    pub fn take(&mut self) -> Vec<M> {
        std::mem::take(&mut self.msgs)
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(e: &usize) -> u64 {
        *e as u64
    }

    #[test]
    fn mirrors_sequential_scheduler_api() {
        let mut s: ShardedScheduler<usize> = ShardedScheduler::new(4, ident);
        assert_eq!(s.shard_count(), 4);
        s.schedule_after(100, 1);
        s.schedule_after(50, 2);
        assert_eq!(s.pending(), 2);
        let (t, e) = s.pop_next().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(50), 2));
        assert_eq!(s.now(), SimTime::from_micros(50));
        let (t, e) = s.pop_next().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(100), 1));
        assert!(s.pop_next().is_none());
        assert_eq!(s.dispatched(), 2);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let s: ShardedScheduler<usize> = ShardedScheduler::new(0, ident);
        assert_eq!(s.shard_count(), 1);
    }

    #[test]
    fn round_pop_defers_clock_advance() {
        let mut s: ShardedScheduler<usize> = ShardedScheduler::new(2, ident);
        let t = SimTime::from_micros(10);
        s.schedule_at(t, 0);
        s.schedule_at(t, 1);
        let (k0, e0) = s.pop_for_round().unwrap();
        let (k1, e1) = s.pop_for_round().unwrap();
        assert_eq!((e0, e1), (0, 1));
        assert!(k0 < k1);
        // Clock still at zero until the round's apply phase advances it.
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.dispatched(), 2);
        s.advance_to(t);
        assert_eq!(s.now(), t);
        // Relative scheduling after the advance is measured from the round's
        // instant, exactly as a sequential dispatch would see it.
        s.schedule_after(5, 9);
        assert_eq!(s.peek_time(), Some(SimTime::from_micros(15)));
    }

    #[test]
    fn clamped_counts_past_instants() {
        let mut s: ShardedScheduler<usize> = ShardedScheduler::new(2, ident);
        s.schedule_after(100, 0);
        s.pop_next();
        s.schedule_at(SimTime::from_micros(1), 1);
        assert_eq!(s.clamped(), 1);
        assert_eq!(s.pop_next().unwrap().0, SimTime::from_micros(100));
    }

    #[test]
    fn stats_roll_up_across_shards() {
        let mut s: ShardedScheduler<usize> = ShardedScheduler::new(3, ident);
        for i in 0..9 {
            s.schedule_after(10 + i as u64, i);
        }
        // Events 0..9 spread over 3 shards by the identity router.
        assert_eq!(
            s.shard_pending(0) + s.shard_pending(1) + s.shard_pending(2),
            9
        );
        s.pop_next();
        s.pop_next();
        let st = s.stats();
        assert_eq!(st.dispatched, 2);
        assert_eq!(st.scheduled, 9);
        assert_eq!(st.pending, 7);
        assert_eq!(st.clamped, 0);
        assert_eq!(st.pending as usize, s.pending());
    }

    #[test]
    fn mailbox_fifo_and_take() {
        let mut mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.is_empty());
        mb.push(1);
        mb.push(2);
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.take(), vec![1, 2]);
        assert!(mb.is_empty());
        mb.fill(vec![7, 8]);
        assert_eq!(mb.take(), vec![7, 8]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::sched::Scheduler;
    use proptest::prelude::*;

    fn by_value(e: &usize) -> u64 {
        *e as u64
    }

    /// One scheduling-or-popping step of the random workload.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        /// Reserve a key `d` µs ahead; the event is scheduled under it at
        /// the next `Pop`, before anything pops.
        Reserve(u64),
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..5_000).prop_map(Op::Push),
                (0u64..5_000).prop_map(Op::Reserve),
                proptest::strategy::Just(Op::Pop),
            ],
            1..300,
        )
    }

    proptest! {
        /// The satellite-1 merge theorem: for any interleaving of pushes and
        /// pops and any shard count, the N-way merge pops exactly the
        /// sequence a single-queue scheduler pops — same payloads, same
        /// times, same final clock and counters.
        #[test]
        fn n_way_merge_equals_sequential_pop_order(ops in ops(), shards in 1usize..8) {
            let mut seq: Scheduler<usize> = Scheduler::new();
            let mut sh: ShardedScheduler<usize> = ShardedScheduler::new(shards, by_value);
            let mut held = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Push(d) => {
                        seq.schedule_after(*d, i);
                        sh.schedule_after(*d, i);
                    }
                    Op::Reserve(d) => {
                        let key = seq.reserve_key(seq.now() + *d);
                        prop_assert_eq!(key, sh.reserve_key(sh.now() + *d));
                        held.push((key, i));
                    }
                    Op::Pop => {
                        for (key, e) in held.drain(..) {
                            seq.schedule_keyed(key, e);
                            sh.schedule_keyed(key, e);
                        }
                        prop_assert_eq!(seq.pop_next(), sh.pop_next());
                        prop_assert_eq!(seq.now(), sh.now());
                    }
                }
            }
            for (key, e) in held.drain(..) {
                seq.schedule_keyed(key, e);
                sh.schedule_keyed(key, e);
            }
            loop {
                let a = seq.pop_next();
                let b = sh.pop_next();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(seq.now(), sh.now());
            prop_assert_eq!(seq.stats(), sh.stats());
        }

        /// Routing is irrelevant to order: two sharded schedulers with
        /// different shard counts pop identically.
        #[test]
        fn shard_count_never_changes_order(delays in proptest::collection::vec(0u64..2_000, 1..200)) {
            let mut a: ShardedScheduler<usize> = ShardedScheduler::new(2, by_value);
            let mut b: ShardedScheduler<usize> = ShardedScheduler::new(7, by_value);
            for (i, d) in delays.iter().enumerate() {
                a.schedule_at(SimTime::from_micros(*d), i);
                b.schedule_at(SimTime::from_micros(*d), i);
            }
            for _ in 0..delays.len() {
                prop_assert_eq!(a.pop_next(), b.pop_next());
            }
        }
    }
}
