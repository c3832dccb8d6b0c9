//! The discrete-event core: a sharded virtual-time timer wheel.
//!
//! Everything time-driven in the cloud — message deliveries,
//! retransmission timeouts, measurement-window closings, periodic
//! subscription firings, node crashes and recoveries — is an entry in
//! one [`ShardedEngine`], keyed on `(due_us, seq)`. The sequence number
//! is assigned at insertion, so two events scheduled for the same
//! instant pop in the order they were scheduled: the queue is a total
//! order and replaying the same seeded scenario dequeues the same
//! events in the same order every time. That tie-break rule is what
//! makes N interleaved attestation sessions deterministic without any
//! per-session clock.
//!
//! ## Sharding without observable effect
//!
//! The engine is split into K hierarchical timer wheels
//! ([`monatt_hypervisor::wheel::TimerWheel`]); a shard key — the server
//! id for session traffic — routes each insertion to `key % K`.
//! Crucially, the **sequence counter is global**: every insertion draws
//! the next seq regardless of shard, and [`ShardedEngine::pop`] takes
//! the least `(due_us, seq)` over the K shard heads. Since `(due, seq)`
//! pairs are unique and the per-shard wheels each pop in `(due, seq)`
//! order, the merged pop sequence is the global `(due, seq)` order —
//! for *any* K and *any* key routing. K is therefore a pure structural
//! decomposition seam (per-shard depth accounting today, a parallelism
//! boundary tomorrow) that cannot perturb a trace: the K=1 golden trace
//! is byte-identical at K=4 by construction, and a test pins it.
//!
//! ## Past scheduling
//!
//! Scheduling in the past is **allowed here** (the event fires "now",
//! after anything already due) because the caller's clock only moves
//! when events are popped, and a remediation response can push the wall
//! clock past instants that were scheduled before it ran. The wheel
//! files such entries in its overdue lane, ordered by `(due, seq)` like
//! everything else. The hypervisor's `run_until` instead asserts
//! monotonicity — see the divergence note in `monatt_hypervisor::queue`.
//!
//! The queue knows nothing about the cloud; payloads are opaque. The
//! merged high-water depth is surfaced through
//! `ProtocolStats::max_queue_depth`; per-shard high-water marks through
//! [`ShardedEngine::shard_depths`].

use monatt_hypervisor::wheel::TimerWheel;

/// Per-slot `Vec` capacity pre-reserved in every wheel, so the warm
/// steady state of the session hot path never touches the allocator
/// (slot indices vary with absolute time, so cold slots would otherwise
/// allocate on first use arbitrarily late in a run).
const SLOT_CAPACITY: usize = 4;

/// A K-sharded virtual-time event queue with deterministic FIFO
/// tie-breaking, keyed by the cloud's microsecond wall clock. See the
/// module docs for the merge-determinism argument.
#[derive(Debug)]
pub(crate) struct ShardedEngine<T> {
    shards: Vec<TimerWheel<T>>,
    /// Global insertion stamp — shared across shards so the merged pop
    /// order is the global `(due, seq)` order.
    next_seq: u64,
    /// Entries currently pending, across all shards.
    len: usize,
    /// High-water mark of `len`.
    max_depth: usize,
    /// Per-shard high-water marks.
    shard_peaks: Vec<usize>,
}

impl<T> ShardedEngine<T> {
    /// Creates an engine with `shards` wheels (clamped to at least 1).
    pub(crate) fn new(shards: usize) -> Self {
        let k = shards.max(1);
        ShardedEngine {
            shards: (0..k)
                .map(|_| TimerWheel::with_slot_capacity(SLOT_CAPACITY))
                .collect(),
            next_seq: 0,
            len: 0,
            max_depth: 0,
            shard_peaks: vec![0; k],
        }
    }

    /// Number of shards (K).
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Schedules `payload` at `due_us` on the shard `shard_key` routes
    /// to. The key affects only which wheel holds the entry, never the
    /// pop order.
    pub(crate) fn schedule(&mut self, due_us: u64, shard_key: u64, payload: T) {
        let shard = (shard_key % self.shards.len() as u64) as usize;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        if let Some(wheel) = self.shards.get_mut(shard) {
            wheel.insert(due_us, seq, payload);
            let depth = wheel.len();
            if let Some(peak) = self.shard_peaks.get_mut(shard) {
                *peak = (*peak).max(depth);
            }
        }
        self.len += 1;
        self.max_depth = self.max_depth.max(self.len);
    }

    /// The shard holding the globally least `(due_us, seq)` entry.
    /// (`&mut` because the wheels settle tombstones and cascades
    /// lazily.)
    fn head_shard(&mut self) -> Option<usize> {
        let heads = self.shards.iter_mut().enumerate();
        heads
            .filter_map(|(i, wheel)| wheel.peek().map(|key| (key, i)))
            .min()
            .map(|(_, shard)| shard)
    }

    /// Pops the globally least `(due_us, seq)` entry across all shards.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let shard = self.head_shard()?;
        let popped = self.shards.get_mut(shard)?.pop();
        if popped.is_some() {
            self.len -= 1;
        }
        popped.map(|(due, _, payload)| (due, payload))
    }

    /// The least `(due_us, seq)` entry without consuming it.
    #[cfg(test)]
    pub(crate) fn peek(&mut self) -> Option<(u64, &T)> {
        let shard = self.head_shard()?;
        self.shards.get_mut(shard)?.peek_payload()
    }

    /// Entries currently pending.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of the merged pending count.
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Per-shard high-water marks of the pending count.
    pub(crate) fn shard_depths(&self) -> &[usize] {
        &self.shard_peaks
    }

    /// Restarts every high-water mark from the entries pending now.
    pub(crate) fn reset_peaks(&mut self) {
        self.max_depth = self.len;
        for (peak, wheel) in self.shard_peaks.iter_mut().zip(&self.shards) {
            *peak = wheel.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_hypervisor::queue::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_due_order() {
        let mut q = ShardedEngine::new(1);
        q.schedule(30, 0, "c");
        q.schedule(10, 0, "a");
        q.schedule(20, 0, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        // Even when the simultaneous events land on different shards.
        let mut q = ShardedEngine::new(3);
        for (i, label) in ["first", "second", "third", "fourth"].iter().enumerate() {
            q.schedule(5, i as u64, *label);
        }
        let drained: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(drained, ["first", "second", "third", "fourth"]);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_total_order() {
        let mut q = ShardedEngine::new(2);
        q.schedule(10, 0, 1u32);
        q.schedule(40, 1, 4u32);
        assert_eq!(q.pop(), Some((10, 1)));
        // Scheduling "in the past" fires before anything later.
        q.schedule(5, 1, 0u32);
        q.schedule(20, 0, 2u32);
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((20, 2)));
        q.schedule(30, 0, 3u32);
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), Some((40, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = ShardedEngine::new(2);
        q.schedule(7, 1, 'x');
        assert_eq!(q.peek(), Some((7, &'x')));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((7, 'x')));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn max_depth_is_a_high_water_mark() {
        let mut q = ShardedEngine::new(2);
        assert_eq!(q.max_depth(), 0);
        q.schedule(1, 0, ());
        q.schedule(2, 1, ());
        q.schedule(3, 0, ());
        q.pop();
        q.pop();
        q.schedule(4, 1, ());
        assert_eq!(q.max_depth(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shard_depths_track_per_shard_peaks() {
        let mut q = ShardedEngine::new(2);
        q.schedule(1, 0, ());
        q.schedule(2, 0, ());
        q.schedule(3, 0, ());
        q.schedule(4, 1, ());
        q.pop();
        q.pop();
        assert_eq!(q.shard_depths(), &[3, 1]);
        assert_eq!(q.max_depth(), 4);
        assert_eq!(q.shard_count(), 2);
    }

    #[test]
    fn reset_peaks_restarts_from_the_pending_depth() {
        let mut q = ShardedEngine::new(2);
        for due in 0..4 {
            q.schedule(due, due, ());
        }
        q.pop();
        q.pop();
        q.pop();
        q.reset_peaks();
        assert_eq!(q.max_depth(), 1);
        assert_eq!(q.shard_depths(), &[0, 1]);
        q.schedule(9, 0, ());
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.shard_depths(), &[1, 1]);
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let mut q = ShardedEngine::new(0);
        assert_eq!(q.shard_count(), 1);
        q.schedule(1, 7, "still works");
        assert_eq!(q.pop(), Some((1, "still works")));
    }

    /// The merged pop order is independent of the shard count and of the
    /// key routing: the global seq plus the least-`(due, seq)` merge make
    /// K purely structural. This is the unit-level face of the golden
    /// trace's K=1 vs K=4 byte-identity.
    #[test]
    fn pop_order_is_invariant_across_shard_counts() {
        let schedule_all = |q: &mut ShardedEngine<u64>| {
            // Same-tick bursts, scattered keys, interleaved pops.
            let mut stamp = 0u64;
            for round in 0..50u64 {
                for key in [round % 7, round % 3, 12345, round] {
                    q.schedule(round / 4, key, stamp);
                    stamp += 1;
                }
            }
        };
        let drain = |mut q: ShardedEngine<u64>| {
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        let mut reference = ShardedEngine::new(1);
        schedule_all(&mut reference);
        let expected = drain(reference);
        for k in [2usize, 3, 4, 8] {
            let mut q = ShardedEngine::new(k);
            schedule_all(&mut q);
            assert_eq!(drain(q), expected, "pop order diverged at K={k}");
        }
    }

    proptest! {
        /// Differential test against the retained BinaryHeap: under any
        /// interleaving of pushes and pops — due times drawn from a tiny
        /// range so same-tick bursts are the norm, keys scattered across
        /// shards, K varying — the sharded wheel pops byte-identically
        /// to the `(due, seq)`-ordered heap.
        #[test]
        fn merged_pops_match_binary_heap_oracle(
            k in 1usize..5,
            ops in proptest::collection::vec((0u64..4, 0u64..8, 0u8..4), 1..250),
        ) {
            let mut q = ShardedEngine::new(k);
            let mut oracle: EventQueue<u64, u64> = EventQueue::new();
            let mut next_id = 0u64; // insertion stamp, mirrors seq
            for (due, key, action) in ops {
                if action == 0 && !oracle.is_empty() {
                    let expected = oracle.pop();
                    prop_assert_eq!(q.pop(), expected);
                } else {
                    q.schedule(due, key, next_id);
                    oracle.schedule(due, next_id);
                    next_id += 1;
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            // Drain: the tails must match exactly.
            loop {
                let expected = oracle.pop();
                let got = q.pop();
                prop_assert_eq!(got, expected);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
        }
    }
}
