//! Coalesced socket retransmission timers.
//!
//! A TCP socket re-arms its retransmission timer on every ACK while data is
//! in flight, and the stack only ever honours the latest arm
//! ([`HostStack::on_timer`](dvelm_stack::HostStack::on_timer) drops the
//! rest). Scheduling one `SockTimer` event per arm would fill the event
//! heap with timers that fire as no-ops. Instead each socket keeps at most
//! one event in the scheduler — the *pending* one — like Linux's single
//! `mod_timer`-ed timer per socket. An arm due no earlier than the pending
//! event is *deferred*: its dispatch key is reserved at arm time
//! ([`Scheduler::reserve_key`]), it replaces any older deferred arm,
//! and it is scheduled under that reserved key when the pending event
//! fires. So every arm that can do anything dispatches under exactly the
//! key it would have had if it had been scheduled at arm time, and the
//! arms that are never scheduled are the ones the stack would have
//! dropped.
//!
//! [`Scheduler::reserve_key`]: dvelm_sim::Scheduler::reserve_key

use dvelm_sim::DispatchKey;
use dvelm_stack::SockId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// An armed timer: its reserved dispatch key and the socket's timer
/// generation at arm time.
pub(crate) type Arm = (DispatchKey, u64);

/// One socket's timer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// The socket's `SockTimer` event in the scheduler.
    pending: Arm,
    /// The latest arm due no earlier than `pending`, scheduled when
    /// `pending` fires.
    deferred: Option<Arm>,
}

/// A socket, by host index and host-local id. `SockId`s are never reused
/// on a host, so a key names one socket for the life of the world.
pub(crate) type SockKey = (usize, SockId);

/// The timer slots of every TCP socket in the world. Only sockets with a
/// timer event in the scheduler have one, so hosts without TCP traffic
/// cost nothing.
#[derive(Debug, Default)]
pub(crate) struct SockTimers {
    slots: BTreeMap<SockKey, Slot>,
}

impl SockTimers {
    /// Record an arm of `sock`'s timer under its reserved `key`. Returns
    /// true when the caller must schedule the event now: the socket has no
    /// pending event, or this arm is due before it. Otherwise the arm is
    /// deferred until the pending event fires.
    ///
    /// A deferred arm replaced here is dead. Two arms share a generation
    /// only when the first one fired in between: `on_rto` re-arms without
    /// bumping it, while a stop and every re-arm of an armed timer bump it.
    /// A deferred arm has not fired, so its generation is strictly older
    /// than `gen` and [`HostStack::on_timer`] would ignore it.
    ///
    /// [`HostStack::on_timer`]: dvelm_stack::HostStack::on_timer
    pub(crate) fn arm(&mut self, sock: SockKey, key: DispatchKey, gen: u64) -> bool {
        match self.slots.entry(sock) {
            Entry::Vacant(e) => {
                e.insert(Slot {
                    pending: (key, gen),
                    deferred: None,
                });
                true
            }
            Entry::Occupied(mut e) => {
                let slot = e.get_mut();
                debug_assert!(
                    slot.deferred.is_none_or(|(_, g)| g < gen),
                    "a replaced deferred arm must be stale"
                );
                if slot.pending.0.at <= key.at {
                    slot.deferred = Some((key, gen));
                    false
                } else {
                    // Due before the pending event, which stays in the
                    // scheduler and fires as a stale no-op.
                    *slot = Slot {
                        pending: (key, gen),
                        deferred: None,
                    };
                    true
                }
            }
        }
    }

    /// The event `key` of `sock` fired (after the stack handled it). If it
    /// was the pending event, returns the deferred arm to schedule in its
    /// place, or frees the slot when there is none.
    pub(crate) fn fired(&mut self, sock: SockKey, key: DispatchKey) -> Option<Arm> {
        let Entry::Occupied(mut e) = self.slots.entry(sock) else {
            return None;
        };
        if e.get().pending.0 != key {
            return None;
        }
        match e.get_mut().deferred.take() {
            Some(next) => {
                e.get_mut().pending = next;
                Some(next)
            }
            None => {
                e.remove();
                None
            }
        }
    }

    /// Sockets of `host` with a timer slot.
    pub(crate) fn on_host(&self, host: usize) -> usize {
        self.slots.keys().filter(|(h, _)| *h == host).count()
    }

    /// Forget every slot of `host` (it crashed: its events die at the
    /// door).
    pub(crate) fn clear_host(&mut self, host: usize) {
        self.slots.retain(|(h, _), _| *h != host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvelm_sim::SimTime;

    fn key(at: u64, seq: u64) -> DispatchKey {
        DispatchKey {
            at: SimTime::from_micros(at),
            seq,
        }
    }

    #[test]
    fn later_arms_defer_and_the_latest_takes_over() {
        let mut t = SockTimers::default();
        let s = (0, SockId(1));
        assert!(t.arm(s, key(100, 0), 0));
        assert!(!t.arm(s, key(150, 1), 1));
        assert!(
            !t.arm(s, key(100, 2), 2),
            "a tie with the pending event defers"
        );
        assert!(!t.arm(s, key(180, 3), 3));
        assert_eq!(t.fired(s, key(50, 9)), None, "not the pending event");
        assert_eq!(t.fired(s, key(100, 0)), Some((key(180, 3), 3)));
        assert_eq!(t.fired(s, key(180, 3)), None);
        assert_eq!(t.on_host(0), 0, "the last event frees the slot");
    }

    #[test]
    fn an_earlier_arm_is_scheduled_and_becomes_pending() {
        let mut t = SockTimers::default();
        let s = (3, SockId(7));
        assert!(t.arm(s, key(500, 0), 4));
        assert!(!t.arm(s, key(600, 1), 5));
        assert!(t.arm(s, key(300, 2), 6));
        // The superseded event fires later and changes nothing.
        assert_eq!(t.fired(s, key(300, 2)), None);
        assert_eq!(t.on_host(3), 0);
        assert_eq!(t.fired(s, key(500, 0)), None);
    }

    #[test]
    fn a_crash_drops_only_its_hosts_slots() {
        let mut t = SockTimers::default();
        assert!(t.arm((1, SockId(1)), key(1, 0), 0));
        assert!(t.arm((1, SockId(2)), key(1, 1), 0));
        assert!(t.arm((2, SockId(1)), key(1, 2), 0));
        t.clear_host(1);
        assert_eq!((t.on_host(1), t.on_host(2)), (0, 1));
        assert_eq!(t.fired((1, SockId(1)), key(1, 0)), None);
    }
}
