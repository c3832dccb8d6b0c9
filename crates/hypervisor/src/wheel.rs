//! Hierarchical timing wheel: O(1) schedule/pop for virtual-time timers.
//!
//! A Varghese–Lauck hierarchical timing wheel sized for the full `u64`
//! microsecond virtual clock — **11 levels × 64 slots** (6 bits per
//! level; 11·6 = 66 ≥ 64, so the top level only ever uses 16 of its
//! slots). There is no overflow list and no epoch migration: every
//! future instant files into exactly one slot.
//!
//! No shipped code schedules into it. The cloud's events go through
//! the [`crate::queue::EventQueue`] heap, which at the cloud's depths
//! is no slower and retains one buffer instead of 704 slot buffers
//! (DESIGN.md §12); the wheel stays only because the benchmark's
//! `hypervisor.wheel.*` leaves time it beside the heap.
//!
//! ## Ordering contract
//!
//! The wheel pops in exactly the `(due, seq)` total order of the heap,
//! where `seq` is a caller-supplied monotonically increasing insertion
//! stamp. The differential proptests in this module check it against
//! the heap.
//!
//! ## How filing works
//!
//! The wheel keeps a `cursor`: the due time of the most recently
//! popped entry. An entry files at the level of the *highest bit group
//! in which its due time differs from the cursor*, at the slot given
//! by the due time's own bits for that group (absolute indexing, not
//! cursor-relative):
//!
//! ```text
//! level g = (index of highest set bit of (cursor XOR due)) / 6
//! slot  s = (due >> 6g) & 63
//! ```
//!
//! Invariant: an entry sits at level `g` iff its due time agrees with
//! the cursor on every bit group above `g`. Two consequences make the
//! pop path simple:
//!
//! 1. **Levels are strictly ordered.** Every entry at level `g` is due
//!    before every entry at level `g+1` (they agree with the cursor —
//!    and hence each other — above their filing group, and differ
//!    first at it). The global minimum therefore lives in the lowest
//!    non-empty level.
//! 2. **Within a level, slots are ordered.** All entries at level `g`
//!    have a slot index strictly greater than the cursor's group `g`
//!    (equal would mean they belong to a lower level), so the smallest
//!    occupied slot — found by `trailing_zeros` on a per-level 64-bit
//!    occupancy bitmap — holds the minimum.
//!
//! Popping drains that one slot, advances the cursor to the slot's
//! minimum due time and refiles the remainder; refiled entries land at
//! a strictly lower level, so each entry cascades at most 10 times
//! over its lifetime and the amortized cost per operation is O(1).
//! Entries due at exactly the cursor live in a `current` buffer
//! (sorted by `seq`); entries scheduled in the past — permitted, they
//! fire "now" — live in a sorted `overdue` buffer in front of
//! everything else.
//!
//! ## Cancellation
//!
//! `cancel(seq)` is a tombstone: the entry stays where it is and is
//! skipped (and reclaimed) when the pop path reaches it. The caller
//! must only cancel sequence numbers that are actually pending;
//! cancelling an unknown or already-popped stamp skews the length
//! bookkeeping (it never panics — arithmetic here saturates).

use std::collections::{BTreeSet, VecDeque};

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Levels needed to cover all 64 bits of a microsecond clock.
const LEVELS: usize = 11;
/// Mask extracting one level's bit group.
const SLOT_MASK: u64 = (SLOTS_PER_LEVEL as u64) - 1;

#[derive(Debug)]
struct Entry<T> {
    due: u64,
    seq: u64,
    payload: T,
}

/// A hierarchical timing wheel over `(due, seq, payload)` entries.
///
/// Sequence numbers are assigned by the caller and must be unique and
/// monotonically increasing across inserts; the wheel pops entries in
/// ascending `(due, seq)` order, byte-identical to a BinaryHeap with
/// the same tie-break (see the module docs for why that holds).
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Due time of the most recently popped entry (0 initially).
    cursor: u64,
    /// `LEVELS × SLOTS_PER_LEVEL` slot buckets, row-major by level.
    slots: Vec<Vec<Entry<T>>>,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// Entries scheduled before the cursor, sorted by `(due, seq)`.
    overdue: VecDeque<Entry<T>>,
    /// Entries due exactly at the cursor, sorted by `seq`.
    current: VecDeque<Entry<T>>,
    /// Reusable drain buffer for slot cascades.
    scratch: Vec<Entry<T>>,
    /// Tombstoned sequence numbers awaiting reclamation.
    cancelled: BTreeSet<u64>,
    /// Live (inserted, not popped, not cancelled) entry count.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel. Slot `Vec`s keep their capacity across
    /// drains, so a warmed steady state schedules and pops without
    /// touching the allocator.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            slots: (0..LEVELS * SLOTS_PER_LEVEL).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            overdue: VecDeque::new(),
            current: VecDeque::new(),
            scratch: Vec::new(),
            cancelled: BTreeSet::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. `seq` must be unique and larger than every
    /// previously inserted sequence number.
    pub fn insert(&mut self, due: u64, seq: u64, payload: T) {
        self.len = self.len.saturating_add(1);
        self.file(Entry { due, seq, payload });
    }

    /// Tombstones a pending entry by its sequence number. Returns
    /// `false` if the stamp was already tombstoned. Must only be
    /// called for stamps that are actually pending (see module docs).
    pub fn cancel(&mut self, seq: u64) -> bool {
        if self.cancelled.insert(seq) {
            self.len = self.len.saturating_sub(1);
            true
        } else {
            false
        }
    }

    /// The `(due, seq)` key of the next live entry, without removing
    /// it. Takes `&mut self`: peeking may advance the wheel's cursor
    /// and reclaim tombstones (observationally pure — the pop order is
    /// unaffected).
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 || !self.settle() {
            return None;
        }
        if let Some(e) = self.overdue.front() {
            return Some((e.due, e.seq));
        }
        self.current.front().map(|e| (e.due, e.seq))
    }

    /// Removes and returns the live entry with the smallest
    /// `(due, seq)` key.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 || !self.settle() {
            return None;
        }
        let e = if self.overdue.front().is_some() {
            self.overdue.pop_front()
        } else {
            self.current.pop_front()
        }?;
        self.len = self.len.saturating_sub(1);
        Some((e.due, e.seq, e.payload))
    }

    /// Files one entry relative to the current cursor.
    fn file(&mut self, e: Entry<T>) {
        if e.due < self.cursor {
            // Scheduled in the past: fires "now", ordered by (due, seq)
            // among its overdue peers. Rare, so the O(n) ordered insert
            // is fine.
            let pos = self
                .overdue
                .partition_point(|x| (x.due, x.seq) < (e.due, e.seq));
            self.overdue.insert(pos, e);
        } else if e.due == self.cursor {
            // Callers insert with monotone seq, and cascade refills go
            // through `advance` (which sorts), so push_back keeps
            // `current` seq-sorted.
            self.current.push_back(e);
        } else {
            let diff = self.cursor ^ e.due;
            let g = (63u32.saturating_sub(diff.leading_zeros()) / LEVEL_BITS) as usize;
            let s = ((e.due >> (LEVEL_BITS * g as u32)) & SLOT_MASK) as usize;
            if let Some(slot) = self.slots.get_mut(g * SLOTS_PER_LEVEL + s) {
                slot.push(e);
            }
            if let Some(bits) = self.occupancy.get_mut(g) {
                *bits |= 1u64 << s;
            }
        }
    }

    /// Discards tombstoned entries at the front and advances the
    /// cursor until a live entry heads `overdue` or `current`. Returns
    /// `false` when the wheel holds nothing (live or dead) at all.
    fn settle(&mut self) -> bool {
        loop {
            while let Some(e) = self.overdue.front() {
                if self.cancelled.contains(&e.seq) {
                    if let Some(dead) = self.overdue.pop_front() {
                        self.cancelled.remove(&dead.seq);
                    }
                } else {
                    return true;
                }
            }
            while let Some(e) = self.current.front() {
                if self.cancelled.contains(&e.seq) {
                    if let Some(dead) = self.current.pop_front() {
                        self.cancelled.remove(&dead.seq);
                    }
                } else {
                    return true;
                }
            }
            if !self.advance() {
                return false;
            }
        }
    }

    /// Drains the smallest occupied slot of the lowest non-empty
    /// level, advances the cursor to its minimum due time and refiles
    /// the rest (each lands at a strictly lower level — see module
    /// docs — so the cascade terminates). Returns `false` if every
    /// slot is empty.
    fn advance(&mut self) -> bool {
        let mut found = None;
        for (g, bits) in self.occupancy.iter().enumerate() {
            if *bits != 0 {
                found = Some((g, bits.trailing_zeros() as usize));
                break;
            }
        }
        let Some((g, s)) = found else {
            return false;
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if let Some(slot) = self.slots.get_mut(g * SLOTS_PER_LEVEL + s) {
            scratch.append(slot);
        }
        if let Some(bits) = self.occupancy.get_mut(g) {
            *bits &= !(1u64 << s);
        }
        // Cascaded entries can carry lower stamps than entries filed
        // into the same slot later, so order the drain explicitly.
        scratch.sort_unstable_by_key(|a| (a.due, a.seq));
        if let Some(first) = scratch.first() {
            self.cursor = first.due;
        }
        let m = self.cursor;
        for e in scratch.drain(..) {
            if e.due == m {
                self.current.push_back(e);
            } else {
                self.file(e);
            }
        }
        self.scratch = scratch;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use proptest::prelude::*;

    /// Thin harness assigning monotone stamps, as a caller drives the
    /// wheel.
    struct Stamped {
        wheel: TimerWheel<u64>,
        next_seq: u64,
    }

    impl Stamped {
        fn new() -> Self {
            Stamped {
                wheel: TimerWheel::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, due: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.wheel.insert(due, seq, seq);
            seq
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            self.wheel.pop().map(|(due, _, payload)| (due, payload))
        }
    }

    #[test]
    fn pops_in_due_order() {
        let mut w = Stamped::new();
        w.push(30);
        w.push(10);
        w.push(20);
        assert_eq!(w.pop(), Some((10, 1)));
        assert_eq!(w.pop(), Some((20, 2)));
        assert_eq!(w.pop(), Some((30, 0)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn same_tick_burst_pops_in_insertion_order() {
        let mut w = Stamped::new();
        for _ in 0..8 {
            w.push(5);
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn past_scheduling_fires_before_anything_later() {
        let mut w = Stamped::new();
        w.push(10);
        w.push(40);
        assert_eq!(w.pop(), Some((10, 0)));
        // Cursor is now 10; scheduling before it fires next.
        w.push(5);
        w.push(20);
        assert_eq!(w.pop(), Some((5, 2)));
        assert_eq!(w.pop(), Some((20, 3)));
        assert_eq!(w.pop(), Some((40, 1)));
        assert!(w.wheel.is_empty());
    }

    #[test]
    fn multiple_overdue_pop_in_due_then_seq_order() {
        let mut w = Stamped::new();
        w.push(100);
        assert_eq!(w.pop(), Some((100, 0)));
        w.push(7);
        w.push(3);
        w.push(7);
        assert_eq!(w.pop(), Some((3, 2)));
        assert_eq!(w.pop(), Some((7, 1)));
        assert_eq!(w.pop(), Some((7, 3)));
    }

    #[test]
    fn deep_cascades_across_all_levels() {
        // Due times spanning every bit-group boundary of the 64-bit
        // horizon, inserted in reverse, must still drain sorted.
        let mut w = Stamped::new();
        let mut dues: Vec<u64> = (0..11).map(|g| 3u64 << (6 * g)).collect();
        dues.push(u64::MAX);
        dues.push(u64::MAX - 1);
        for &d in dues.iter().rev() {
            w.push(d);
        }
        let mut sorted = dues.clone();
        sorted.sort_unstable();
        let drained: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(d, _)| d)).collect();
        assert_eq!(drained, sorted);
    }

    #[test]
    fn cancel_skips_entries_everywhere() {
        let mut w = Stamped::new();
        let a = w.push(10);
        w.push(10);
        let c = w.push(1 << 30); // far future: lives high in the wheel
        w.push(20);
        assert!(w.wheel.cancel(a));
        assert!(!w.wheel.cancel(a));
        assert!(w.wheel.cancel(c));
        assert_eq!(w.wheel.len(), 2);
        assert_eq!(w.pop(), Some((10, 1)));
        assert_eq!(w.pop(), Some((20, 3)));
        assert_eq!(w.pop(), None);
        assert!(w.wheel.is_empty());
    }

    #[test]
    fn peek_matches_pop_and_does_not_consume() {
        let mut w = Stamped::new();
        w.push(9);
        w.push(4);
        assert_eq!(w.wheel.peek(), Some((4, 1)));
        assert_eq!(w.wheel.peek(), Some((4, 1)));
        assert_eq!(w.wheel.len(), 2);
        assert_eq!(w.pop(), Some((4, 1)));
        assert_eq!(w.wheel.peek(), Some((9, 0)));
    }

    #[test]
    fn interleaved_reinsertion_at_cursor() {
        let mut w = Stamped::new();
        w.push(50);
        assert_eq!(w.pop(), Some((50, 0)));
        // Due exactly at the cursor goes to `current` and still pops
        // before anything later.
        w.push(50);
        w.push(51);
        assert_eq!(w.pop(), Some((50, 1)));
        assert_eq!(w.pop(), Some((51, 2)));
    }

    /// Differential oracle: the retained BinaryHeap queue, with
    /// tombstone-based cancellation layered on top so both sides see
    /// identical operations.
    struct Oracle {
        heap: EventQueue<u64, u64>,
        cancelled: BTreeSet<u64>,
    }

    impl Oracle {
        fn new() -> Self {
            Oracle {
                heap: EventQueue::default(),
                cancelled: BTreeSet::new(),
            }
        }

        /// Pops the next live entry as `(due, stamp)`. The heap assigns
        /// its own internal sequence numbers, but both sides schedule
        /// on exactly the same calls, so the stamp carried as the
        /// payload tracks the heap's tie-break counter one-for-one.
        fn pop(&mut self) -> Option<(u64, u64)> {
            while let Some((due, stamp)) = self.heap.pop() {
                if !self.cancelled.remove(&stamp) {
                    return Some((due, stamp));
                }
            }
            None
        }
    }

    proptest! {
        /// Any interleaving of inserts, pops and cancellations — due
        /// times drawn from a tiny range (same-tick bursts), a medium
        /// range and the far horizon (max-depth cascades) — pops from
        /// the wheel in byte-identical `(due, seq)` order to the
        /// BinaryHeap oracle.
        #[test]
        fn wheel_matches_binary_heap_oracle(
            ops in proptest::collection::vec((0u8..8, 0u64..4, any::<u64>()), 1..300),
        ) {
            let mut wheel = TimerWheel::new();
            let mut oracle = Oracle::new();
            let mut next_seq = 0u64;
            let mut pending: Vec<u64> = Vec::new();
            for (action, small_due, wide) in ops {
                match action {
                    // Insert biased toward same-tick collisions, with
                    // occasional far-future dues to force cascades
                    // across many levels.
                    0..=3 => {
                        let due = match action {
                            0 | 1 => small_due,
                            2 => 1_000 + (wide % 50),
                            _ => wide,
                        };
                        let seq = next_seq;
                        next_seq += 1;
                        wheel.insert(due, seq, seq);
                        oracle.heap.schedule(due, seq);
                        pending.push(seq);
                    }
                    // Pop both, compare.
                    4..=6 => {
                        let got = wheel.pop().map(|(d, s, _)| (d, s));
                        let want = oracle.pop();
                        prop_assert_eq!(got, want);
                        if let Some((_, seq)) = got {
                            pending.retain(|&s| s != seq);
                        }
                    }
                    // Cancel a pending entry on both sides.
                    _ => {
                        if !pending.is_empty() {
                            let victim = pending.remove((wide as usize) % pending.len());
                            wheel.cancel(victim);
                            oracle.cancelled.insert(victim);
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), pending.len());
            }
            // Drain and compare the tails.
            loop {
                let got = wheel.pop().map(|(d, s, _)| (d, s));
                let want = oracle.pop();
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
