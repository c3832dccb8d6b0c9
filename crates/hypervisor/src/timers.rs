//! Re-armable timer slots: the timer set of one
//! [`crate::engine::ServerSim`].
//!
//! A server's live timers are a small, *bounded* set with fixed
//! identities — one tick for the whole server, one accounting timer, at
//! most one compute deadline and one slice deadline per pCPU (a pCPU runs
//! one vCPU; a compute that never ends arms no deadline), at most one
//! wake per vCPU. Neither general queue in this crate fits that shape:
//! the [`crate::queue::EventQueue`] (the cloud's event queue) cannot
//! cancel, so every deschedule left its two run timers behind to be
//! popped and discarded later (28 % of all pops on a busy server), and
//! the [`crate::wheel::TimerWheel`] (kept only for a benchmark leaf)
//! pays a cascade per pop that only amortises over queues thousands
//! deep, not twenty.
//!
//! Here every timer *is* a slot. [`TimerSlots::arm`] overwrites the
//! slot's due time, so re-arming and cancelling are one store and
//! nothing stale is ever popped; [`TimerSlots::pop_due`] is a min-scan
//! over the slot table (a few cache lines).
//!
//! ## Ordering contract
//!
//! The same as the heap's and the wheel's: slots pop in `(due, stamp)`
//! order, where the stamp is drawn from one counter at every `arm` —
//! among timers due at one instant, the one armed first fires first.
//! An engine that arms exactly where it used to push therefore pops
//! its live timers in exactly the order the heap did.
//!
//! Nothing here panics: a slot id that was never issued (or was
//! released) is ignored.

use crate::time::SimTime;

/// `(due µs, stamp)`: tuple order is pop order.
type Key = (u64, u64);

/// A disarmed slot. No timer is due at `u64::MAX` µs: the engine arms no
/// deadline that would reach it (a compute for ever is not a timer).
const OFF: Key = (u64::MAX, u64::MAX);

/// A table of timer slots, each tagged with what it means to its owner.
#[derive(Debug)]
pub(crate) struct TimerSlots<T> {
    keys: Vec<Key>,
    tags: Vec<T>,
    /// Released slots, reissued before the table grows.
    free: Vec<usize>,
    next_stamp: u64,
}

impl<T: Copy> TimerSlots<T> {
    pub(crate) fn new() -> Self {
        TimerSlots {
            keys: Vec::new(),
            tags: Vec::new(),
            free: Vec::new(),
            next_stamp: 0,
        }
    }

    /// Issues a disarmed slot that pops as `tag`.
    #[cold]
    pub(crate) fn add(&mut self, tag: T) -> usize {
        if let Some(slot) = self.free.pop() {
            if let Some(t) = self.tags.get_mut(slot) {
                *t = tag;
            }
            return slot;
        }
        self.keys.push(OFF);
        self.tags.push(tag);
        self.keys.len() - 1
    }

    /// Disarms `slot` and returns it to the table for reissue, so the
    /// scan stays as long as the owner's *live* timer set.
    #[cold]
    pub(crate) fn release(&mut self, slot: usize) {
        if let Some(key) = self.keys.get_mut(slot) {
            *key = OFF;
            self.free.push(slot);
        }
    }

    /// (Re-)arms `slot` to fire at `due`, stamped after every timer
    /// armed so far. An armed slot is simply overwritten: its earlier
    /// deadline is cancelled.
    pub(crate) fn arm(&mut self, slot: usize, due: SimTime) {
        if let Some(key) = self.keys.get_mut(slot) {
            *key = (due.as_micros(), self.next_stamp);
            self.next_stamp = self.next_stamp.wrapping_add(1);
        }
    }

    /// Cancels `slot`'s timer, if armed.
    pub(crate) fn disarm(&mut self, slot: usize) {
        if let Some(key) = self.keys.get_mut(slot) {
            *key = OFF;
        }
    }

    /// Moves an armed `slot` to `due` *keeping its stamp*: its place
    /// among the timers armed before and after it is unchanged.
    pub(crate) fn postpone(&mut self, slot: usize, due: SimTime) {
        if let Some(key) = self.keys.get_mut(slot).filter(|key| **key != OFF) {
            key.0 = due.as_micros();
        }
    }

    /// When `slot` fires, if armed.
    pub(crate) fn due(&self, slot: usize) -> Option<SimTime> {
        let key = self.keys.get(slot).filter(|key| **key != OFF)?;
        Some(SimTime::from_micros(key.0))
    }

    /// Disarms and returns the earliest timer due at or before
    /// `deadline`. Two passes — the earliest due time (a plain `u64`
    /// minimum, which vectorises), then the lowest stamp among the slots
    /// due then — measured faster than one pass over `(due, stamp)`.
    pub(crate) fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        let first = self.keys.iter().map(|key| key.0).min()?;
        if first == OFF.0 || first > deadline.as_micros() {
            return None;
        }
        let (slot, key) = self
            .keys
            .iter_mut()
            .enumerate()
            .filter(|(_, key)| key.0 == first)
            .min_by_key(|(_, key)| key.1)?;
        *key = OFF;
        Some((SimTime::from_micros(first), *self.tags.get(slot)?))
    }

    /// Number of armed slots.
    pub(crate) fn live(&self) -> usize {
        self.keys.iter().filter(|key| **key != OFF).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use proptest::prelude::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_due_then_arm_order() {
        let mut t = TimerSlots::new();
        let slots: Vec<usize> = "abcd".chars().map(|c| t.add(c)).collect();
        t.arm(slots[0], at(30));
        t.arm(slots[1], at(10));
        t.arm(slots[2], at(10));
        assert_eq!(t.live(), 3);
        assert_eq!(t.pop_due(at(5)), None);
        assert_eq!(t.pop_due(at(10)), Some((at(10), 'b')));
        assert_eq!(t.pop_due(at(10)), Some((at(10), 'c')));
        assert_eq!(t.pop_due(at(10)), None);
        assert_eq!(t.pop_due(at(u64::MAX)), Some((at(30), 'a')));
        assert_eq!(t.pop_due(at(u64::MAX)), None);
    }

    #[test]
    fn rearm_overwrites_and_restamps() {
        let mut t = TimerSlots::new();
        let (a, b) = (t.add('a'), t.add('b'));
        t.arm(a, at(10));
        t.arm(b, at(10));
        t.arm(a, at(10)); // now armed after `b`
        assert_eq!(t.live(), 2);
        assert_eq!(t.pop_due(at(10)), Some((at(10), 'b')));
        assert_eq!(t.pop_due(at(10)), Some((at(10), 'a')));
    }

    #[test]
    fn postpone_keeps_the_stamp() {
        let mut t = TimerSlots::new();
        let (a, b, c) = (t.add('a'), t.add('b'), t.add('c'));
        t.arm(a, at(10));
        t.arm(b, at(20));
        t.postpone(a, at(20)); // still armed before `b`
        t.postpone(c, at(5)); // disarmed: stays off
        assert_eq!(t.due(a), Some(at(20)));
        assert_eq!(t.due(c), None);
        assert_eq!(t.pop_due(at(20)), Some((at(20), 'a')));
        assert_eq!(t.pop_due(at(20)), Some((at(20), 'b')));
    }

    #[test]
    fn released_slots_are_reissued_disarmed() {
        let mut t = TimerSlots::new();
        let a = t.add('a');
        t.arm(a, at(10));
        t.release(a);
        assert_eq!(t.live(), 0);
        let b = t.add('b');
        assert_eq!(a, b, "the table does not grow while a slot is free");
        assert_eq!(t.due(b), None);
        t.arm(b, at(7));
        assert_eq!(t.pop_due(at(7)), Some((at(7), 'b')));
    }

    #[test]
    fn unknown_slots_are_ignored() {
        let mut t: TimerSlots<char> = TimerSlots::new();
        t.arm(3, at(1));
        t.disarm(3);
        t.postpone(3, at(2));
        t.release(3);
        assert_eq!(t.due(3), None);
        assert_eq!(t.pop_due(at(u64::MAX)), None);
    }

    proptest! {
        /// Against the heap the engine used to run on: arm = push under a
        /// fresh per-slot epoch, disarm = bump the epoch, and the heap's
        /// pops are filtered for staleness exactly as the old handlers
        /// did. Live timers must come out in the same order.
        #[test]
        fn matches_an_epoch_filtered_heap(
            ops in proptest::collection::vec((0_u8..4, 0_usize..6, 0_u64..40), 1..200),
        ) {
            let mut slots = TimerSlots::new();
            let ids: Vec<usize> = (0..6).map(|i| slots.add(i)).collect();
            let mut heap: EventQueue<u64, (usize, u64)> = EventQueue::new();
            let mut live = [0_u64; 6];
            let mut now = 0_u64;
            for (op, i, delta) in ops {
                match op {
                    0 | 1 => {
                        live[i] += 1;
                        heap.schedule(now + delta, (i, live[i]));
                        slots.arm(ids[i], at(now + delta));
                    }
                    2 => {
                        live[i] += 1;
                        slots.disarm(ids[i]);
                    }
                    _ => {
                        now += delta;
                        loop {
                            let got = slots.pop_due(at(now));
                            let want = loop {
                                match heap.peek() {
                                    Some((due, _)) if due <= now => {}
                                    _ => break None,
                                }
                                let (due, (i, stamp)) = heap.pop().expect("peeked");
                                if live[i] == stamp {
                                    live[i] += 1;
                                    break Some((at(due), i));
                                }
                            };
                            prop_assert_eq!(got, want);
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}
