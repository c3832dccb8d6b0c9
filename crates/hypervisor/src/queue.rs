//! The reference virtual-time event queue: a `BinaryHeap` keyed
//! `(key, seq)`.
//!
//! Both discrete-event engines in this workspace started on this heap
//! and both have since moved to a structure shaped for their own queue:
//! the cloud-level protocol engine in `monatt-core` pops a sharded
//! [`crate::wheel::TimerWheel`] (10⁵ pending timers, tombstone cancel),
//! and the per-server hypervisor simulator ([`crate::engine::ServerSim`])
//! re-arms a fixed table of timer slots (about twenty live timers,
//! cancel = overwrite). The heap stays as what both are checked
//! against: it is the differential oracle of the wheel's and the slot
//! table's proptests, and the `hypervisor.queue.*` leaves of the
//! benchmark keep timing it beside the wheel.
//!
//! ## Ordering contract
//!
//! Events pop strictly in `(key, seq)` order: earliest key first, and
//! within one instant, insertion order (`seq` is assigned at
//! [`EventQueue::schedule`] time and never reused). Because `seq` is
//! unique the order is total — replaying the same schedule pops the
//! same events in the same order every time. The wheel and the slot
//! table promise the same order, which is what let each engine change
//! structure without perturbing a single event.
//!
//! ## Past scheduling
//!
//! The queue itself allows scheduling at any key, including one earlier
//! than the last pop. What the engines do with that differs, on
//! purpose:
//!
//! * `ServerSim::run_until` asserts monotonicity (`debug_assert!` that
//!   no popped timer predates `now`): the hypervisor only ever arms
//!   into the future, so a past timer there is a bug.
//! * The cloud engine *permits* past scheduling — a remediation
//!   response can advance the wall clock past instants scheduled
//!   before it ran, and such events simply fire "now" (see
//!   `monatt-core`'s `engine` module).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event.
#[derive(Debug)]
struct Entry<K, T> {
    key: K,
    seq: u64,
    payload: T,
}

impl<K: Ord, T> PartialEq for Entry<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl<K: Ord, T> Eq for Entry<K, T> {}

impl<K: Ord, T> PartialOrd for Entry<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for Entry<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; invert so the earliest (key, seq)
        // pair pops first. `seq` is unique, so the order is total.
        (&other.key, other.seq).cmp(&(&self.key, self.seq))
    }
}

/// A virtual-time event queue with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<K, T> {
    heap: BinaryHeap<Entry<K, T>>,
    next_seq: u64,
    max_depth: usize,
}

impl<K: Ord, T> Default for EventQueue<K, T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            max_depth: 0,
        }
    }
}

impl<K: Ord + Copy, T> EventQueue<K, T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` at virtual time `key`. Keys in the past are
    /// accepted; whether that is legal is the caller's policy (see the
    /// module docs on the two engines' divergence).
    pub fn schedule(&mut self, key: K, payload: T) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.heap.push(Entry { key, seq, payload });
        self.max_depth = self.max_depth.max(self.heap.len());
    }

    /// The key and payload of the earliest event, if any.
    pub fn peek(&self) -> Option<(K, &T)> {
        self.heap.peek().map(|e| (e.key, &e.payload))
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(K, T)> {
        self.heap.pop().map(|e| (e.key, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of pending events since construction.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        q.schedule(30u64, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_keys_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third", "fourth"] {
            q.schedule(5u64, label);
        }
        let drained: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(drained, ["first", "second", "third", "fourth"]);
    }

    #[test]
    fn works_with_non_u64_keys() {
        use crate::time::SimTime;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), 'b');
        q.schedule(SimTime::from_micros(3), 'a');
        assert_eq!(q.peek(), Some((SimTime::from_micros(3), &'a')));
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 'b')));
    }

    #[test]
    fn max_depth_is_a_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.max_depth(), 0);
        q.schedule(1u64, ());
        q.schedule(2, ());
        q.schedule(3, ());
        q.pop();
        q.pop();
        q.schedule(4, ());
        assert_eq!(q.max_depth(), 3);
        assert_eq!(q.len(), 2);
    }
}
